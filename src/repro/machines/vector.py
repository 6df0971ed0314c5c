"""Vector machine models (AVX2, AVX-512).

A :class:`VectorMachine` packages, externally to the compiler, everything a
scheduling library needs to know about a SIMD target (Section 6.1.1):

* the vector-register memory space,
* vector widths per precision,
* whether predicated (masked) loads/stores are available,
* the ``@instr`` procedures implementing loads, stores, broadcasts, arithmetic
  and FMAs (their bodies define semantics for the interpreter and unifier; the
  attached C templates are what the backend emits).

The instruction set is generated programmatically per precision so that the
same machinery instantiates AVX2 (256-bit) and AVX-512 (512-bit); new targets
are one function call away — exactly the "growing" workflow the paper argues
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.procedure import Procedure
from ..frontend.decorators import proc_from_source
from ..ir.memories import Memory, MemoryKind
from ..ir.nodes import InstrInfo

__all__ = ["VectorMachine", "make_vector_machine", "AVX2", "AVX512"]


@dataclass
class InstructionSet:
    """The vector instructions for one precision."""

    load: object
    store: object
    broadcast: object
    set_zero: object
    add: object
    add_acc: object
    mul: object
    fma: object
    pred_load: Optional[object] = None
    pred_store: Optional[object] = None
    pred_fma: Optional[object] = None
    pred_add_acc: Optional[object] = None
    pred_broadcast: Optional[object] = None
    pred_mul: Optional[object] = None

    def all(self) -> List[object]:
        out = []
        for f in (
            self.fma,
            self.add_acc,
            self.add,
            self.mul,
            self.load,
            self.store,
            self.broadcast,
            self.set_zero,
            self.pred_fma,
            self.pred_add_acc,
            self.pred_mul,
            self.pred_load,
            self.pred_store,
            self.pred_broadcast,
        ):
            if f is not None:
                out.append(f)
        return out


@dataclass
class VectorMachine:
    """A SIMD hardware target description usable from scheduling code."""

    name: str
    width_bits: int
    mem_type: Memory
    supports_predication: bool
    instructions: Dict[str, InstructionSet] = field(default_factory=dict)
    patterns: List[str] = field(default_factory=list)

    def vec_width(self, precision: str) -> int:
        bits = {"f32": 32, "f64": 64, "i8": 8, "i32": 32}[precision]
        return self.width_bits // bits

    def get_instructions(self, precision: str) -> List[object]:
        return self.instructions[precision].all()

    def get_instruction_set(self, precision: str) -> InstructionSet:
        return self.instructions[precision]

    def __repr__(self) -> str:
        return f"<VectorMachine {self.name}>"


def _build_isa(machine_name: str, mem: Memory, precision: str, vw: int, predicated: bool) -> InstructionSet:
    """Generate the ``@instr`` procedures for one precision of one machine."""
    T = precision
    pfx = f"{machine_name.lower()}_{T}"
    env = {"VEC": mem}
    intrin = {
        ("AVX2", "f32"): ("_mm256", "ps"),
        ("AVX2", "f64"): ("_mm256", "pd"),
        ("AVX512", "f32"): ("_mm512", "ps"),
        ("AVX512", "f64"): ("_mm512", "pd"),
    }
    # Templates for the two x86 targets are real, compilable C (the native
    # backend emits them verbatim and links the result); other machines get
    # documentation pseudo-C that the native backend refuses to emit, falling
    # back to the instruction's scalar body.
    real = (machine_name, T) in intrin
    ibase, isfx = intrin.get((machine_name, T), ("_vec", T))

    def mk(name, src, c_template, cost):
        root = proc_from_source(src, env)._root
        return Procedure(root, instr_info=InstrInfo(c_template, "", cost, real))

    load = mk(
        f"{pfx}_load",
        f"""
def {pfx}_load(dst: [{T}][{vw}] @ VEC, src: [{T}][{vw}] @ DRAM):
    for i in seq(0, {vw}):
        dst[i] = src[i]
""",
        f"{{dst_data}} = {ibase}_loadu_{isfx}(&{{src_data}});",
        1.0,
    )
    store = mk(
        f"{pfx}_store",
        f"""
def {pfx}_store(dst: [{T}][{vw}] @ DRAM, src: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] = src[i]
""",
        f"{ibase}_storeu_{isfx}(&{{dst_data}}, {{src_data}});",
        1.0,
    )
    broadcast = mk(
        f"{pfx}_broadcast",
        f"""
def {pfx}_broadcast(dst: [{T}][{vw}] @ VEC, val: {T}):
    for i in seq(0, {vw}):
        dst[i] = val
""",
        f"{{dst_data}} = {ibase}_set1_{isfx}({{val}});",
        1.0,
    )
    set_zero = mk(
        f"{pfx}_set_zero",
        f"""
def {pfx}_set_zero(dst: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] = 0.0
""",
        f"{{dst_data}} = {ibase}_setzero_{isfx}();",
        1.0,
    )
    add = mk(
        f"{pfx}_add",
        f"""
def {pfx}_add(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, b: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] = a[i] + b[i]
""",
        f"{{dst_data}} = {ibase}_add_{isfx}({{a_data}}, {{b_data}});",
        1.0,
    )
    add_acc = mk(
        f"{pfx}_add_acc",
        f"""
def {pfx}_add_acc(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] += a[i]
""",
        f"{{dst_data}} = {ibase}_add_{isfx}({{dst_data}}, {{a_data}});",
        1.0,
    )
    mul = mk(
        f"{pfx}_mul",
        f"""
def {pfx}_mul(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, b: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] = a[i] * b[i]
""",
        f"{{dst_data}} = {ibase}_mul_{isfx}({{a_data}}, {{b_data}});",
        1.0,
    )
    fma = mk(
        f"{pfx}_fma",
        f"""
def {pfx}_fma(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, b: [{T}][{vw}] @ VEC):
    for i in seq(0, {vw}):
        dst[i] += a[i] * b[i]
""",
        f"{{dst_data}} = {ibase}_fmadd_{isfx}({{a_data}}, {{b_data}}, {{dst_data}});",
        1.0,
    )

    iset = InstructionSet(load, store, broadcast, set_zero, add, add_acc, mul, fma)
    if predicated:
        # Predicated (tail) instructions.  The semantics (the bodies below)
        # are "lanes with base + i < bound are touched, the rest keep their
        # previous value".  AVX-512 expresses this directly with opmask
        # intrinsics; AVX2 has only maskload/maskstore, so the arithmetic
        # forms go through tiny blend helpers that travel in the preamble of
        # every 256-bit unit (see _AVX2_HELPERS in repro.backend.codegen).
        cnt = "({bound}) - ({base})"
        if machine_name == "AVX512" and real:
            k = f"repro_mask{vw}({cnt})"
            t_load = f"{{dst_data}} = {ibase}_mask_loadu_{isfx}({{dst_data}}, {k}, &{{src_data}});"
            t_store = f"{ibase}_mask_storeu_{isfx}(&{{dst_data}}, {k}, {{src_data}});"
            t_fma = f"{{dst_data}} = {ibase}_mask3_fmadd_{isfx}({{a_data}}, {{b_data}}, {{dst_data}}, {k});"
            t_addacc = f"{{dst_data}} = {ibase}_mask_add_{isfx}({{dst_data}}, {k}, {{dst_data}}, {{a_data}});"
            t_mul = f"{{dst_data}} = {ibase}_mask_mul_{isfx}({{dst_data}}, {k}, {{a_data}}, {{b_data}});"
            t_bcast = (
                f"{{dst_data}} = {ibase}_mask_blend_{isfx}({k}, {{dst_data}}, {ibase}_set1_{isfx}({{val}}));"
            )
        elif machine_name == "AVX2" and real:
            t_load = f"{{dst_data}} = repro_avx2_maskload_{isfx}({{dst_data}}, &{{src_data}}, {cnt});"
            t_store = f"repro_avx2_maskstore_{isfx}(&{{dst_data}}, {{src_data}}, {cnt});"
            t_fma = (
                f"{{dst_data}} = repro_avx2_maskblend_{isfx}({{dst_data}}, "
                f"{ibase}_fmadd_{isfx}({{a_data}}, {{b_data}}, {{dst_data}}), {cnt});"
            )
            t_addacc = (
                f"{{dst_data}} = repro_avx2_maskblend_{isfx}({{dst_data}}, "
                f"{ibase}_add_{isfx}({{dst_data}}, {{a_data}}), {cnt});"
            )
            t_mul = (
                f"{{dst_data}} = repro_avx2_maskblend_{isfx}({{dst_data}}, "
                f"{ibase}_mul_{isfx}({{a_data}}, {{b_data}}), {cnt});"
            )
            t_bcast = (
                f"{{dst_data}} = repro_avx2_maskblend_{isfx}({{dst_data}}, "
                f"{ibase}_set1_{isfx}({{val}}), {cnt});"
            )
        else:
            t_load = f"{{dst_data}} = {ibase}_maskz_loadu_{isfx}({cnt}, &{{src_data}});"
            t_store = f"{ibase}_mask_storeu_{isfx}(&{{dst_data}}, {cnt}, {{src_data}});"
            t_fma = f"{{dst_data}} = {ibase}_mask_fmadd_{isfx}({{a_data}}, {cnt}, {{b_data}}, {{dst_data}});"
            t_addacc = f"{{dst_data}} = {ibase}_mask_add_{isfx}({{dst_data}}, {cnt}, {{dst_data}}, {{a_data}});"
            t_mul = f"{{dst_data}} = {ibase}_maskz_mul_{isfx}({cnt}, {{a_data}}, {{b_data}});"
            t_bcast = f"{{dst_data}} = {ibase}_maskz_set1_{isfx}({cnt}, {{val}});"
        iset.pred_load = mk(
            f"{pfx}_maskload",
            f"""
def {pfx}_maskload(dst: [{T}][{vw}] @ VEC, src: [{T}][{vw}] @ DRAM, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] = src[i]
""",
            t_load,
            1.5,
        )
        iset.pred_store = mk(
            f"{pfx}_maskstore",
            f"""
def {pfx}_maskstore(dst: [{T}][{vw}] @ DRAM, src: [{T}][{vw}] @ VEC, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] = src[i]
""",
            t_store,
            1.5,
        )
        iset.pred_fma = mk(
            f"{pfx}_maskfma",
            f"""
def {pfx}_maskfma(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, b: [{T}][{vw}] @ VEC, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] += a[i] * b[i]
""",
            t_fma,
            1.5,
        )
        iset.pred_add_acc = mk(
            f"{pfx}_maskadd_acc",
            f"""
def {pfx}_maskadd_acc(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] += a[i]
""",
            t_addacc,
            1.5,
        )
        iset.pred_mul = mk(
            f"{pfx}_maskmul",
            f"""
def {pfx}_maskmul(dst: [{T}][{vw}] @ VEC, a: [{T}][{vw}] @ VEC, b: [{T}][{vw}] @ VEC, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] = a[i] * b[i]
""",
            t_mul,
            1.5,
        )
        iset.pred_broadcast = mk(
            f"{pfx}_maskbroadcast",
            f"""
def {pfx}_maskbroadcast(dst: [{T}][{vw}] @ VEC, val: {T}, bound: index, base: index):
    for i in seq(0, {vw}):
        if base + i < bound:
            dst[i] = val
""",
            t_bcast,
            1.5,
        )
    return iset


def make_vector_machine(name: str, width_bits: int, *, supports_predication: bool) -> VectorMachine:
    """Instantiate a SIMD machine model (user-extensible: call this with your
    own parameters to target a new vector ISA)."""
    mem = Memory(f"VEC_{name}", MemoryKind.VECTOR_REG, lane_width_bits=width_bits)
    machine = VectorMachine(name, width_bits, mem, supports_predication)
    for precision in ("f32", "f64"):
        vw = machine.vec_width(precision)
        machine.instructions[precision] = _build_isa(name, mem, precision, vw, supports_predication)
    return machine


# The two x86 targets evaluated in the paper.  Both support predicated vector
# loads/stores (AVX2 via maskload/maskstore, AVX-512 via opmask registers),
# which is what the skinny-matrix schedule of Section 6.2.2 relies on.
AVX2 = make_vector_machine("AVX2", 256, supports_predication=True)
AVX512 = make_vector_machine("AVX512", 512, supports_predication=True)
