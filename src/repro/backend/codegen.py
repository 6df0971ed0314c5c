"""C code generation.

Scheduled object code lowers to C99 that actually compiles and runs: loops
become ``for`` loops, buffers become stack arrays / ``calloc`` blocks / SIMD
register variables (per their memory space), and calls to ``@instr``
procedures whose templates are marked ``intrinsic`` emit the instruction's C
template verbatim with argument lvalues substituted — Exo's exocompilation
model.  Instructions *without* a real intrinsic mapping (and calls to
ordinary sub-procedures) are inlined at emission time and lowered as scalar
C, which is always semantically correct.

Calling convention (shared with :mod:`repro.backend.native`, which compiles
the result and calls it through ``ctypes``):

* tensors pass as ``T *name`` plus one ``int64_t name_s<d>`` *element* stride
  per dimension (so NumPy views work unchanged and ``stride(A, d)`` lowers to
  a parameter read) — except that an intrinsic template steps through its
  memory operand contiguously, so the operand must run along the last
  dimension and its tensor is flagged ``unit_stride`` in the argspec: the
  caller checks that innermost stride, and the kernel ignores the parameter
  and addresses the tensor with a literal 1;
* ``size``/``index`` arguments pass as ``int64_t``, ``bool`` as ``bool``;
* numeric scalars pass at the precision the reference interpreter computes
  with — ``double`` for float types, ``int32_t`` for integer types.

A unit from :func:`emit_unit` also exports its entry name and argspec, as the
JSON string constant :data:`ABI_SYMBOL`: a cached shared object says how to
call it, without its procedure being lowered again.

Element types follow the *execution* dtypes of :data:`NP_DTYPES` (``f32`` →
``float``, ``f64`` → ``double``, every integer type → ``int32_t``), not the
declared storage types, so the three engines agree bit-for-bit where FP
allows.  Anything that cannot be lowered faithfully raises
:class:`CodegenError` (with the offending statement's printed source) before
a single broken line is emitted.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.effects import ParUnproven, par_env, par_write_classes, written_arguments
from ..analysis.linear import const_value
from ..errors import BackendError, CodegenError
from ..guard.events import record_fallback
from ..ir import nodes as N
from ..ir.build import alpha_rename_stmts, collect_syms_written, used_syms_expr, walk
from ..ir.externs import extern_by_name
from ..ir.memories import MemoryKind
from ..ir.printing import expr_str, proc_str, stmt_lines
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType
from .lowering import InlineError, np_dtype_for, row_major_strides, substitute_call_body

__all__ = [
    "ABI_SYMBOL",
    "CODEGEN_VERSION",
    "CodegenError",
    "CodegenOptions",
    "NativeUnit",
    "compile_to_c",
    "emit_unit",
    "proc_to_c",
]


# The artifact key (repro.backend.native) names a procedure, not its C, so
# this is the one statement that the C emitted for an unchanged procedure
# changed: bump it with any such change, which invalidates every cached
# artifact.  tests/backend/test_emitted_units.py holds it to that.
CODEGEN_VERSION = 5

# the name of the constant through which a unit describes its own calling
# convention (``{"name": ..., "argspec": [...]}`` as JSON), so a cached
# ``.so`` loads without lowering its procedure again
ABI_SYMBOL = "repro_abi"


@dataclass(frozen=True)
class CodegenOptions:
    """Options that change the emitted C / the compile flags.

    Part of the artifact-cache key (see :meth:`key`): changing any field
    makes previously cached shared objects stale.
    """

    intrinsics: bool = True  # emit @instr templates (False: inline every body)
    opt_level: str = "-O3"
    march: str = "native"
    # explicit intrinsic FMAs stay fused; *contraction* of scalar code is
    # disabled so the scalar fallback rounds exactly like the interpreter
    fp_contract: str = "off"
    # emit `#pragma omp parallel for` on provably race-free `par` loops and
    # build with -fopenmp (set by repro.backend.native when the toolchain
    # supports it and the procedure contains a par loop)
    openmp: bool = False

    # key() and with_openmp() are asked on every warm native call; the object
    # is frozen, so each is derived once and kept beside the fields
    def key(self) -> str:
        got = self.__dict__.get("_key")
        if got is None:
            got = self.__dict__["_key"] = (
                f"intrinsics={int(self.intrinsics)};opt={self.opt_level};"
                f"march={self.march};fp-contract={self.fp_contract};"
                f"omp={int(self.openmp)}"
            )
        return got

    def with_openmp(self) -> "CodegenOptions":
        """These options with ``openmp=True`` (one object per options object)."""
        got = self.__dict__.get("_with_openmp")
        if got is None:
            got = self.__dict__["_with_openmp"] = self if self.openmp else replace(self, openmp=True)
        return got

    def cflags(self) -> List[str]:
        flags = [self.opt_level, f"-march={self.march}", f"-ffp-contract={self.fp_contract}"]
        if self.openmp:
            flags.append("-fopenmp")
        # a unit declares only the intrinsics its headers were chosen for: a
        # name they miss is a compile error, never an implicit int-returning call
        flags.append("-Werror=implicit-function-declaration")
        return flags


@dataclass
class NativeUnit:
    """One emitted translation unit plus the ctypes-facing argument spec.

    ``argspec`` entries are
    ``("tensor", dtype_name, rank, arg_name, unit_stride, written)`` or
    ``("i64" | "i32" | "f64" | "bool", arg_name)``.  ``unit_stride``: an
    intrinsic template steps through the tensor contiguously, so the caller
    must pass it with an innermost element stride of 1; ``written``: the
    kernel may store into it (:func:`repro.analysis.effects.written_arguments`).
    ``source`` exports ``name`` and ``argspec`` as :data:`ABI_SYMBOL`.
    """

    name: str
    source: str
    argspec: Tuple[tuple, ...]


# The execution C type backing a scalar/tensor element (matches NP_DTYPES;
# keyed by the dtype itself: ``dtype.name`` is recomputed on every read, and a
# vectorised unit asks this a hundred times).
_EXEC_CTYPES = {np.dtype(np.float32): "float", np.dtype(np.float64): "double", np.dtype(np.int32): "int32_t"}


def _exec_ctype(typ) -> str:
    return _EXEC_CTYPES[np_dtype_for(typ)]


_VREG_CTYPE = {
    ("float", 256): "__m256",
    ("double", 256): "__m256d",
    ("float", 512): "__m512",
    ("double", 512): "__m512d",
}

_C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "bool", "true", "false",
    "free", "calloc", "memset",
}


class _Names:
    """Per-unit C identifier table.  Distinct :class:`Sym`\\ s print with the
    same surface name after scheduling (e.g. repeated ``var1`` allocations
    left by fission), so every bound symbol gets a unique C name here."""

    def __init__(self):
        self.by_sym: Dict[Sym, str] = {}
        self.used: Set[str] = set(_C_KEYWORDS)

    def reserve(self, name: str) -> None:
        self.used.add(name)

    def of(self, sym: Sym) -> str:
        got = self.by_sym.get(sym)
        if got is not None:
            return got
        base = re.sub(r"[^A-Za-z0-9_]", "_", sym.name or "v")
        if not re.match(r"[A-Za-z_]", base):
            base = "_" + base
        cand, i = base, 0
        while cand in self.used:
            i += 1
            cand = f"{base}_{i}"
        self.used.add(cand)
        self.by_sym[sym] = cand
        return cand


@dataclass
class _Buf:
    """What the generator knows about one bound symbol."""

    kind: str  # "tensor" | "scalar" | "vreg"
    ctype: str  # element C type
    strides: Optional[List[str]] = None  # rendered element strides (tensors)
    lanes: int = 0  # vreg: lanes per register
    outer: Optional[List[int]] = None  # vreg: constant outer dims (register array)
    vtype: str = ""  # vreg: __m256 / __m512d / ...
    spilled: str = ""  # tensor: the declaration of a @ VEC buffer that is no register


_MAX_STACK_ELEMS = 16384  # larger constant-shaped allocations go on the heap
_MAX_INLINE_DEPTH = 32


class _CGen:
    def __init__(self, root: N.ProcDef, options: CodegenOptions):
        self.root = root
        self.options = options
        self.lines: List[str] = []
        self.indent = 0
        self.names = _Names()
        self.bufs: Dict[Sym, _Buf] = {}
        self.int_syms: Set[Sym] = set()  # iterators and index/size/bool args
        self.free_stack: List[List[str]] = []
        self.globals: List[str] = []
        self.cur_stmt: Optional[N.Stmt] = None
        self.inline_depth = 0
        self.par_depth = 0  # inside an OpenMP-parallel loop body
        self.loops: List[N.For] = []  # enclosing loops (facts for the par proof)
        self.innermost: Dict[str, Sym] = {}  # a tensor argument's innermost stride parameter -> it
        self.unit_stride: Set[Sym] = set()  # arguments an intrinsic steps through contiguously
        self.stride_reads: Set[str] = set()  # stride parameters read as values (stride(A, d))

    # -- error reporting -----------------------------------------------------

    def err(self, message: str, node=None) -> CodegenError:
        loc = None
        node = node if node is not None else self.cur_stmt
        try:
            if isinstance(node, N.Stmt):
                loc = stmt_lines([node])[0].strip()
            elif isinstance(node, N.Expr):
                loc = expr_str(node)
        except Exception:
            loc = None
        return CodegenError(message, proc_name=self.root.name, location=loc)

    # -- emission ------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    # -- static int-ness (mirrors the interpreter's runtime ``both_int``) ----

    def is_int(self, e: N.Expr) -> bool:
        if isinstance(e, N.Const):
            return isinstance(e.val, (int, np.integer)) and not isinstance(e.val, bool)
        if isinstance(e, N.Read):
            if e.name in self.int_syms:
                return True
            buf = self.bufs.get(e.name)
            return buf is not None and buf.ctype == "int32_t"
        if isinstance(e, N.BinOp):
            if e.op in ("<", "<=", ">", ">=", "==", "!=", "and", "or"):
                return True
            return self.is_int(e.lhs) and self.is_int(e.rhs)
        if isinstance(e, N.USub):
            return self.is_int(e.arg)
        if isinstance(e, N.StrideExpr):
            return True
        return False

    # -- expressions ----------------------------------------------------------

    def expr(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            return self.const_str(e)
        if isinstance(e, N.Read):
            return self.read_str(e)
        if isinstance(e, N.BinOp):
            return self.binop_str(e)
        if isinstance(e, N.USub):
            return f"(-{self.expr(e.arg)})"
        if isinstance(e, N.Extern):
            d = extern_by_name(e.fname)
            if not getattr(d, "c_template", ""):
                raise self.err(f"extern {e.fname!r} has no C template", e)
            return d.c_template.format(*[self.expr(a) for a in e.args])
        if isinstance(e, N.StrideExpr):
            buf = self.bufs.get(e.name)
            if buf is None or buf.strides is None or e.dim >= len(buf.strides):
                raise self.err(f"stride() of non-tensor {e.name}", e)
            self.stride_reads.add(buf.strides[e.dim])
            return f"({buf.strides[e.dim]})"
        if isinstance(e, N.ReadConfig):
            raise self.err(
                f"configuration state ({e.config.name()}.{e.field_name}) is not "
                "supported by the C backend",
                e,
            )
        if isinstance(e, N.WindowExpr):
            raise self.err("window expression in a value position", e)
        raise self.err(f"cannot lower expression of type {type(e).__name__}", e)

    def const_str(self, e: N.Const) -> str:
        v = e.val
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        f = float(v)
        if math.isnan(f):
            return "NAN"
        if math.isinf(f):
            return "INFINITY" if f > 0 else "(-INFINITY)"
        return repr(f)  # a C double literal; scalar FP math runs at f64

    def read_str(self, e: N.Read) -> str:
        buf = self.bufs.get(e.name)
        if buf is not None and buf.kind == "vreg":
            if not e.idx:
                raise self.err("whole vector register read in a value position", e)
            return self.vreg_elem(e.name, list(e.idx))
        c = self.names.of(e.name)
        if not e.idx:
            return c
        if buf is None or buf.kind != "tensor":
            raise self.err(f"indexed read of non-tensor {e.name}", e)
        return f"{c}[{self.flat(e.name, list(e.idx))}]"

    def binop_str(self, e: N.BinOp) -> str:
        if e.op in ("/", "%") and self.is_int(e.lhs) and self.is_int(e.rhs):
            d = int(e.rhs.val) if isinstance(e.rhs, N.Const) else 0
            if d > 0 and d & (d - 1) == 0:
                # by 2^k, an arithmetic shift and a two's-complement mask of
                # the int64_t the helpers compute in are floor semantics for
                # every sign; and `cc` can see that `n & 7` is below 8, so it
                # does not vectorise a 7-iteration tail loop
                a = f"(int64_t)({self.expr(e.lhs)})"
                return f"({a} >> {d.bit_length() - 1})" if e.op == "/" else f"({a} & {d - 1})"
            fn = "repro_fdiv" if e.op == "/" else "repro_fmod"
            return f"{fn}({self.expr(e.lhs)}, {self.expr(e.rhs)})"
        if e.op == "%":
            raise self.err("floating-point % has Python semantics the C backend does not model", e)
        op = {"and": "&&", "or": "||"}.get(e.op, e.op)
        return f"({self.expr(e.lhs)} {op} {self.expr(e.rhs)})"

    # -- buffers ---------------------------------------------------------------

    def flat(self, sym: Sym, idx: Sequence[N.Expr]) -> str:
        buf = self.bufs[sym]
        strides = buf.strides or []
        parts: List[str] = []
        for d, e in enumerate(idx):
            es = self.expr(e)
            s = strides[d] if d < len(strides) else "1"
            parts.append(es if s == "1" else f"({es}) * ({s})")
        return " + ".join(parts) if parts else "0"

    def vreg_elem(self, sym: Sym, idx: List[N.Expr]) -> str:
        buf = self.bufs[sym]
        c = self.names.of(sym)
        lane = self.expr(idx[-1])
        outer = idx[:-1]
        if buf.outer:
            if len(outer) != len(buf.outer):
                raise self.err(f"vector register {sym} accessed with wrong rank")
            return f"{c}[{self._vreg_outer(buf, outer)}][{lane}]"
        if outer:
            raise self.err(f"vector register {sym} accessed with wrong rank")
        return f"{c}[{lane}]"

    def _vreg_outer(self, buf: _Buf, outer: Sequence[N.Expr]) -> str:
        parts = []
        mult = 1
        for d in range(len(buf.outer) - 1, -1, -1):
            es = self.expr(outer[d])
            parts.append(es if mult == 1 else f"({es}) * {mult}")
            mult *= buf.outer[d]
        return " + ".join(reversed(parts)) if parts else "0"

    def vreg_ref(self, sym: Sym, outer: Sequence[N.Expr], node=None) -> str:
        buf = self.bufs[sym]
        c = self.names.of(sym)
        if buf.outer:
            if len(outer) != len(buf.outer):
                raise self.err(f"vector register {sym} windowed with wrong rank", node)
            return f"{c}[{self._vreg_outer(buf, outer)}]"
        if outer:
            raise self.err(f"vector register {sym} windowed with wrong rank", node)
        return c

    # -- statements --------------------------------------------------------------

    def gen_block(self, stmts: Sequence[N.Stmt]) -> None:
        frees: List[str] = []
        self.free_stack.append(frees)
        for s in stmts:
            self.gen_stmt(s)
        for c in reversed(frees):
            self.emit(f"free({c});")
        self.free_stack.pop()

    def gen_stmt(self, s: N.Stmt) -> None:
        prev = self.cur_stmt
        self.cur_stmt = s
        try:
            self._gen_stmt(s)
        finally:
            self.cur_stmt = prev

    def _gen_stmt(self, s: N.Stmt) -> None:
        if isinstance(s, (N.Assign, N.Reduce)):
            self.gen_assign(s)
        elif isinstance(s, N.Alloc):
            self.gen_alloc(s)
        elif isinstance(s, N.For):
            it = self.names.of(s.iter)
            self.int_syms.add(s.iter)
            lo, hi = self.expr(s.lo), self.expr(s.hi)
            clause = None
            if s.pragma == "par" and self.options.openmp and self.par_depth == 0:
                clause = self._omp_clause(s)
                if clause is not None:
                    self.emit(f"#pragma omp parallel for{clause}")
            self.emit(f"for (int64_t {it} = {lo}; {it} < {hi}; {it}++) {{")
            self.indent += 1
            self.loops.append(s)
            if clause is not None:
                self.par_depth += 1
            try:
                self.gen_block(s.body)
            finally:
                if clause is not None:
                    self.par_depth -= 1
                self.loops.pop()
            self.indent -= 1
            self.emit("}")
        elif isinstance(s, N.If):
            self.emit(f"if ({self.expr(s.cond)}) {{")
            self.indent += 1
            self.gen_block(s.body)
            self.indent -= 1
            if s.orelse:
                self.emit("} else {")
                self.indent += 1
                self.gen_block(s.orelse)
                self.indent -= 1
            self.emit("}")
        elif isinstance(s, N.Pass):
            self.emit(";")
        elif isinstance(s, N.Call):
            self.gen_call(s)
        elif isinstance(s, N.WindowStmt):
            self.gen_window_stmt(s)
        elif isinstance(s, N.WriteConfig):
            raise self.err(
                f"configuration state ({s.config.name()}.{s.field_name}) is not "
                "supported by the C backend"
            )
        else:
            raise self.err(f"cannot lower statement of type {type(s).__name__}")

    def _omp_clause(self, s: N.For) -> Optional[str]:
        """The OpenMP clause suffix for a ``parallel for`` emission of ``s``
        (``""`` or ``" reduction(...)..."``), or ``None`` — with a
        ``par-unlowerable`` event saying why — when the loop must stay
        sequential.

        Legality is :func:`~repro.analysis.effects.par_write_classes` (the
        rule the NumPy engine lowers from); this only maps each class to
        OpenMP's memory model: *shared* buffers need no clause, a *reduce*
        buffer gets ``reduction(+:...)`` when it is a scalar or one array
        cell whose index can be evaluated at loop entry."""
        try:
            classes = par_write_classes(s, par_env(self.root, self.loops))
            parts: List[str] = []
            # an array-section index is evaluated at loop entry: it cannot
            # name this loop's iterator or one bound inside it
            inner = {n.iter for n, _ in walk(s) if isinstance(n, N.For)}
            for sym, cells in sorted(classes.items(), key=lambda kv: self.names.of(kv[0])):
                if cells is None:
                    continue
                name, buf = self.names.of(sym), self.bufs.get(sym)
                if buf is not None and buf.kind == "scalar":
                    parts.append(f" reduction(+:{name})")
                    continue
                is_tensor = buf is not None and buf.kind == "tensor"
                flat = {self.flat(sym, idx) for idx in cells} if is_tensor else set()
                if len(flat) != 1 or any(inner & used_syms_expr(ix) for idx in cells for ix in idx):
                    raise ParUnproven(f"reduction into {sym.name} has no single-clause OpenMP form")
                parts.append(f" reduction(+:{name}[{flat.pop()}:1])")
            return "".join(parts)
        except ParUnproven as exc:
            record_fallback(self.root.name, "c-par->c-seq", "par-unlowerable", detail=str(exc))
            return None

    def gen_assign(self, s) -> None:
        op = "=" if isinstance(s, N.Assign) else "+="
        rhs = self.expr(s.rhs)
        buf = self.bufs.get(s.name)
        if buf is not None and buf.kind == "vreg":
            if not s.idx:
                raise self.err("whole vector register written without a lane index")
            self.emit(f"{self.vreg_elem(s.name, list(s.idx))} {op} {rhs};")
            return
        c = self.names.of(s.name)
        if s.idx:
            if buf is None or buf.kind != "tensor":
                raise self.err(f"indexed write to non-tensor {s.name}")
            self.emit(f"{c}[{self.flat(s.name, list(s.idx))}] {op} {rhs};")
        else:
            self.emit(f"{c} {op} {rhs};")

    def gen_alloc(self, s: N.Alloc) -> None:
        c = self.names.of(s.name)
        if isinstance(s.typ, ScalarType):
            ct = _exec_ctype(s.typ)
            self.bufs[s.name] = _Buf("scalar", ct)
            self.emit(f"{ct} {c} = 0;")
            return
        if not isinstance(s.typ, TensorType):
            raise self.err(f"cannot allocate a value of type {s.typ!r}")
        ct = _exec_ctype(s.typ)
        if s.mem.kind == MemoryKind.VECTOR_REG and self.gen_vreg_alloc(s, c, ct):
            return
        consts = [const_value(d) for d in s.typ.shape]
        strides = row_major_strides(s.typ.shape, self.expr)
        spilled = stmt_lines([s])[0].strip() if s.mem.kind == MemoryKind.VECTOR_REG else ""
        self.bufs[s.name] = _Buf("tensor", ct, strides=strides, spilled=spilled)
        if all(v is not None for v in consts):
            total = 1
            for v in consts:
                total *= v
            if total <= _MAX_STACK_ELEMS:
                # zero-initialised to match the interpreter's np.zeros
                self.emit(f"{ct} {c}[{total}] __attribute__((aligned(64))) = {{0}};")
                return
        size = " * ".join(f"({self.expr(d)})" for d in s.typ.shape)
        self.emit(f"{ct} *{c} = ({ct} *)calloc((size_t)({size}), sizeof({ct}));")
        self.free_stack[-1].append(c)

    def gen_vreg_alloc(self, s: N.Alloc, c: str, ct: str) -> bool:
        """Allocate a vector-register buffer as a real SIMD register variable
        (or register array).  Returns False when the shape does not map onto
        exactly one register per innermost row — e.g. a schedule that
        vectorises 16-wide on a 256-bit machine and only ever touches lanes
        scalarly — in which case the caller falls back to an ordinary aligned
        stack array, which is always correct (the unifier only matches
        ``@instr`` operands against exact register shapes)."""
        consts = [const_value(d) for d in s.typ.shape]
        if any(v is None for v in consts):
            return False
        lanes = consts[-1]
        bits = getattr(s.mem, "lane_width_bits", None) or 0
        vt = _VREG_CTYPE.get((ct, bits))
        elem_bits = {"float": 32, "double": 64}.get(ct)
        if vt is None or elem_bits is None or lanes * elem_bits != bits:
            return False
        outer = consts[:-1]
        self.bufs[s.name] = _Buf("vreg", ct, lanes=lanes, outer=outer, vtype=vt)
        if outer:
            n = 1
            for v in outer:
                n *= v
            self.emit(f"{vt} {c}[{n}] = {{{{0}}}};")
        else:
            self.emit(f"{vt} {c} = {{0}};")
        return True

    def gen_window_stmt(self, s: N.WindowStmt) -> None:
        w = s.rhs
        base = self.bufs.get(w.name)
        if base is None or base.kind != "tensor":
            raise self.err(f"cannot bind a window over {w.name}")
        firsts = [d.lo if isinstance(d, N.Interval) else d.pt for d in w.idx]
        strides = [
            (base.strides[i] if base.strides and i < len(base.strides) else "1")
            for i, d in enumerate(w.idx)
            if isinstance(d, N.Interval)
        ]
        c = self.names.of(s.name)
        self.bufs[s.name] = _Buf("tensor", base.ctype, strides=strides)
        self.emit(f"{base.ctype} *{c} = {self.names.of(w.name)} + ({self.flat(w.name, firsts)});")

    # -- calls ---------------------------------------------------------------------

    def gen_call(self, call: N.Call) -> None:
        callee = call.proc
        cdef = callee._root if hasattr(callee, "_root") else callee
        if len(cdef.args) != len(call.args):
            raise self.err(f"call of {cdef.name} with {len(call.args)} args (expects {len(cdef.args)})")
        if (
            cdef.instr is not None
            and cdef.instr.intrinsic
            and self.options.intrinsics
            and self.intrinsic_applicable(cdef, call)
        ):
            self.gen_intrinsic(cdef, call)
        else:
            self.gen_inlined(cdef, call)

    def intrinsic_applicable(self, cdef: N.ProcDef, call: N.Call) -> bool:
        """An intrinsic template is only emitted when every tensor operand's
        execution element type matches the instruction's declared precision —
        e.g. ``dsdot`` stages ``f32`` data through ``f64`` registers, and a
        raw-bits ``_mm256_loadu_pd`` from a ``float*`` would be garbage.
        Mismatched calls inline the instruction body instead, where scalar C
        conversions apply."""
        for fn_arg, actual in zip(cdef.args, call.args):
            if not isinstance(fn_arg.typ, TensorType):
                continue
            if not isinstance(actual, (N.Read, N.WindowExpr)):
                return False
            buf = self.bufs.get(actual.name)
            if buf is None or buf.ctype != _exec_ctype(fn_arg.typ):
                return False
        return True

    def gen_intrinsic(self, cdef: N.ProcDef, call: N.Call) -> None:
        fmt: Dict[str, str] = {}
        for fn_arg, actual in zip(cdef.args, call.args):
            rendered = self.actual_str(fn_arg, actual)
            if isinstance(fn_arg.typ, TensorType):
                self.note_contiguous(cdef, fn_arg, actual)
            fmt[fn_arg.name.name] = rendered
            fmt[f"{fn_arg.name.name}_data"] = rendered
        if cdef.instr.c_global and cdef.instr.c_global not in self.globals:
            self.globals.append(cdef.instr.c_global)
        try:
            text = cdef.instr.c_instr.format(**fmt)
        except (KeyError, IndexError) as exc:
            raise self.err(f"instruction template of {cdef.name} references unknown key {exc}") from exc
        for line in text.split("\n"):
            self.emit(line)

    def note_contiguous(self, cdef: N.ProcDef, fn_arg: N.FnArg, actual: N.Expr) -> None:
        """A template takes a memory operand as the address of its first
        element and steps through it contiguously.  So the operand must run
        along the last dimension of its buffer, whose stride must be 1: by
        construction for a local buffer, by a run-time check for an argument
        (recorded in ``unit_stride``)."""
        buf = self.bufs.get(actual.name)
        if buf is None or buf.kind != "tensor":
            return  # a register operand
        if isinstance(actual, N.WindowExpr):
            rank = len(actual.idx)
            spanned = [d for d, w in enumerate(actual.idx) if isinstance(w, N.Interval)]
        else:
            rank = len(buf.strides)
            spanned = list(range(rank))
        if spanned != [rank - 1]:
            raise self.err(
                f"operand {fn_arg.name} of {cdef.name} spans dimension(s) {spanned} of {actual.name}; "
                "an intrinsic steps through memory contiguously, along the last dimension only",
                actual,
            )
        stride = buf.strides[-1]
        if stride == "1":
            return
        arg = self.innermost.get(stride)
        if arg is None:
            raise self.err(
                f"operand {fn_arg.name} of {cdef.name} runs along a dimension of {actual.name} "
                "that is not innermost in memory",
                actual,
            )
        self.unit_stride.add(arg)

    def actual_str(self, fn_arg: N.FnArg, actual: N.Expr) -> str:
        """Render a call actual for substitution into an intrinsic template.

        Buffer actuals render as the *first element lvalue* (templates take
        its address with ``&``) and vector-register actuals as the register
        variable itself.
        """
        if (
            fn_arg.mem is not None
            and fn_arg.mem.kind == MemoryKind.VECTOR_REG
            and isinstance(actual, (N.WindowExpr, N.Read))
        ):
            buf = self.bufs.get(actual.name)
            if buf is not None and buf.spilled:
                # the template would hand a `float` to a register operand
                raise self.err(
                    f"operand {fn_arg.name} takes a vector register, but `{buf.spilled}` "
                    "is not one register per innermost row (divide_dim it before vectorising)",
                    actual,
                )
        if isinstance(actual, N.WindowExpr):
            buf = self.bufs.get(actual.name)
            if buf is None:
                raise self.err(f"call actual windows unknown buffer {actual.name}", actual)
            if buf.kind == "vreg":
                outer, last = list(actual.idx[:-1]), actual.idx[-1]
                if (
                    not isinstance(last, N.Interval)
                    or const_value(last.lo) != 0
                    or const_value(last.hi) != buf.lanes
                    or not all(isinstance(d, N.Point) for d in outer)
                ):
                    raise self.err("partial vector-register window in a call", actual)
                return self.vreg_ref(actual.name, [d.pt for d in outer], actual)
            firsts = [d.lo if isinstance(d, N.Interval) else d.pt for d in actual.idx]
            return f"{self.names.of(actual.name)}[{self.flat(actual.name, firsts)}]"
        if isinstance(actual, N.Read) and not actual.idx:
            buf = self.bufs.get(actual.name)
            if buf is not None and buf.kind == "vreg":
                return self.vreg_ref(actual.name, [], actual)
            if buf is not None and buf.kind == "tensor":
                return f"{self.names.of(actual.name)}[0]"
            return self.names.of(actual.name)
        return self.expr(actual)

    def gen_inlined(self, cdef: N.ProcDef, call: N.Call) -> None:
        if self.inline_depth >= _MAX_INLINE_DEPTH:
            raise self.err(f"call chain through {cdef.name} is too deep to inline")
        fresh = alpha_rename_stmts(cdef.body)
        # scalars pass by value: an actual that is more than a constant or a
        # bare variable is evaluated once, at the call, into a const local
        # (substituted textually it would observe the callee's own writes)
        written = collect_syms_written(fresh)
        actuals, locals_ = list(call.args), []
        for k, (fa, actual) in enumerate(zip(cdef.args, call.args)):
            if isinstance(fa.typ, TensorType) or fa.name in written:
                continue
            if isinstance(actual, N.Const) or (isinstance(actual, N.Read) and not actual.idx):
                continue
            local = Sym(fa.name.name)
            if self.is_int(actual):
                self.int_syms.add(local)
            # __typeof__: the arithmetic downstream is what substitution gave
            src = self.expr(actual)
            locals_.append(f"const __typeof__({src}) {self.names.of(local)} = {src};")
            actuals[k] = N.Read(local, [], fa.typ)
        try:
            body = substitute_call_body(cdef.args, actuals, fresh)
        except InlineError as exc:
            raise self.err(f"cannot inline call of {cdef.name}: {exc}") from exc
        self.emit(f"{{ /* {cdef.name} */")
        self.indent += 1
        for line in locals_:
            self.emit(line)
        self.inline_depth += 1
        try:
            self.gen_block(body)
        finally:
            self.inline_depth -= 1
        self.indent -= 1
        self.emit("}")

    # -- whole procedures ------------------------------------------------------------

    def gen_proc(self, *, static: bool = False) -> Tuple[str, tuple]:
        root = self.root
        params: List[str] = []
        argspec: List[tuple] = []
        # reserve every argument name (and its stride names) first so inner
        # allocations can never shadow them
        for a in root.args:
            self.names.of(a.name)
        for a in root.args:
            c = self.names.of(a.name)
            if isinstance(a.typ, TensorType):
                ct = _exec_ctype(a.typ)
                rank = len(a.typ.shape)
                params.append(f"{ct} *{c}")
                strides = []
                for d in range(rank):
                    sname = f"{c}_s{d}"
                    self.names.reserve(sname)
                    params.append(f"int64_t {sname}")
                    strides.append(sname)
                self.bufs[a.name] = _Buf("tensor", ct, strides=strides)
                if strides:
                    self.innermost[strides[-1]] = a.name
                argspec.append(("tensor", np_dtype_for(a.typ).name, rank, a.name))  # + flags, below
            elif a.typ.is_indexable():
                params.append(f"int64_t {c}")
                self.int_syms.add(a.name)
                argspec.append(("i64", a.name.name))
            elif a.typ.is_bool():
                params.append(f"bool {c}")
                self.int_syms.add(a.name)
                argspec.append(("bool", a.name.name))
            elif a.typ.is_float:
                # scalar FP arguments compute at f64, as the interpreter does
                params.append(f"double {c}")
                self.bufs[a.name] = _Buf("scalar", "double")
                argspec.append(("f64", a.name.name))
            else:
                params.append(f"int32_t {c}")
                self.bufs[a.name] = _Buf("scalar", "int32_t")
                argspec.append(("i32", a.name.name))
        self.indent = 1
        for p in root.preds:
            self.emit(f"// assert {expr_str(p)}  (checked by the caller)")
        self.gen_block(root.body)
        # The caller checks a unit-stride argument's innermost stride (1, or a
        # last dimension of extent <= 1, where every in-bounds index is 0), so
        # the body addresses it with a literal 1 and the parameter goes unused:
        # a runtime stride there is what makes `cc` version every loop for it.
        # A stride read as a value (`stride(x, d)`) stays the caller's.
        pins = []
        for sname, arg in self.innermost.items():
            if arg in self.unit_stride and sname not in self.stride_reads:
                params[params.index(f"int64_t {sname}")] = f"int64_t {self.names.of(Sym(sname + '_unused'))}"
                pins.append(f"    const int64_t {sname} = 1;  // checked by the caller")
        qual = "static " if static else ""
        self.lines[:0] = [f"{qual}void {root.name}({', '.join(params) or 'void'}) {{", *pins]
        self.lines.append("}")
        # a tensor's flags are known once the body is emitted
        written = written_arguments(root)
        for k, spec in enumerate(argspec):
            if spec[0] == "tensor":
                tag, dtype_name, rank, sym = spec
                argspec[k] = (tag, dtype_name, rank, sym.name, sym in self.unit_stride, sym in written)
        return "\n".join(self.lines), tuple(argspec)


# ---------------------------------------------------------------------------
# Translation-unit assembly
# ---------------------------------------------------------------------------

# A unit's preamble is assembled from what its body uses, because the headers
# are most of what ``cc`` spends on a small kernel: GCC parses all ~50
# sub-headers of the x86 umbrella header (AVX-512*, AMX, ...) whatever
# ``-march`` says, ~170 ms against ~45 ms for the nine an AVX2+FMA kernel
# needs.  The x86 blocks are cumulative by ISA level — none / 256-bit /
# 512-bit — and travel whole.

# Every unit: the C99 types.  `stdlib.h` and `math.h` only for a body that
# calls into them.
_C99_BLOCK = """\
#include <stdint.h>
#include <stdbool.h>
#include <stddef.h>
"""
_STDLIB_H = "#include <stdlib.h>\n"
_MATH_H = "#include <math.h>\n"

# `/` and `%` with the object language's (Python's) floor semantics on
# negatives, for a divisor that is not a positive power-of-two constant.
#
# Every helper is straight-line code.  Inlined into a loop, a branch on a
# loop-invariant operand (`repro_fdiv(n, d)` in a bound) makes `-O3` unswitch
# the loop and version each copy again: most of the compile time, and code
# that never runs.  C division truncates, so `r` has the sign of `a`: the
# quotient is one too high, and `r` is short of `b` by one `b`, exactly when
# `r` is non-zero and its sign differs from `b`'s.
_FLOOR_DIV_HELPERS = """\
static inline int64_t repro_fdiv(int64_t a, int64_t b) {
    int64_t r = a % b;
    return a / b - ((r != 0) & ((r ^ b) < 0));
}
static inline int64_t repro_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return r + (b & -(int64_t)((r != 0) & ((r ^ b) < 0)));
}
"""

# The SSE..AVX2+FMA sub-headers, included directly.  They refuse to be
# included outside the umbrella header, which they detect by its include
# guard, so the guard is defined first.  The guard's name is
# compiler-internal: repro.backend.native falls back to the umbrella header
# for a compiler that rejects this block.
_X86_LEAN_256 = """\
#if defined(__clang__)
#define __IMMINTRIN_H
#else
#define _IMMINTRIN_H_INCLUDED
#endif
#include <mmintrin.h>
#include <xmmintrin.h>
#include <emmintrin.h>
#include <pmmintrin.h>
#include <tmmintrin.h>
#include <smmintrin.h>
#include <avxintrin.h>
#include <avx2intrin.h>
#include <fmaintrin.h>
"""
# every AVX-512 template of machines/vector.py is an AVX512F intrinsic
_X86_LEAN_512 = "#include <avx512fintrin.h>\n"
# what the sub-headers are cut from: every x86 intrinsic there is
_X86_WIDE = "#include <immintrin.h>\n"

# AVX2 has no opmask registers: predicated (tail) vector ops go through masked
# load/store and blends; preserved lanes must keep their destination value.
# A lane count is clamped, never branched on (see _C99_BLOCK); the 64-bit
# compare needs no clamp at all.
_AVX2_HELPERS = """\
static inline __m256i repro_avx2_lanes_ps(int64_t n) {
    int32_t k = (int32_t)(n < 0 ? 0 : n > 8 ? 8 : n);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(k),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
static inline __m256i repro_avx2_lanes_pd(int64_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
}
static inline __m256 repro_avx2_maskload_ps(__m256 dst, float const *src, int64_t n) {
    __m256i m = repro_avx2_lanes_ps(n);
    return _mm256_blendv_ps(dst, _mm256_maskload_ps(src, m), _mm256_castsi256_ps(m));
}
static inline __m256d repro_avx2_maskload_pd(__m256d dst, double const *src, int64_t n) {
    __m256i m = repro_avx2_lanes_pd(n);
    return _mm256_blendv_pd(dst, _mm256_maskload_pd(src, m), _mm256_castsi256_pd(m));
}
static inline void repro_avx2_maskstore_ps(float *dst, __m256 src, int64_t n) {
    _mm256_maskstore_ps(dst, repro_avx2_lanes_ps(n), src);
}
static inline void repro_avx2_maskstore_pd(double *dst, __m256d src, int64_t n) {
    _mm256_maskstore_pd(dst, repro_avx2_lanes_pd(n), src);
}
static inline __m256 repro_avx2_maskblend_ps(__m256 dst, __m256 val, int64_t n) {
    __m256i m = repro_avx2_lanes_ps(n);
    return _mm256_blendv_ps(dst, val, _mm256_castsi256_ps(m));
}
static inline __m256d repro_avx2_maskblend_pd(__m256d dst, __m256d val, int64_t n) {
    __m256i m = repro_avx2_lanes_pd(n);
    return _mm256_blendv_pd(dst, val, _mm256_castsi256_pd(m));
}
"""

# AVX-512: a lane count, clamped, becomes an opmask.
_AVX512_HELPERS = """\
static inline __mmask16 repro_mask16(int64_t n) {
    return (__mmask16)((1u << (n < 0 ? 0 : n > 16 ? 16 : n)) - 1u);
}
static inline __mmask8 repro_mask8(int64_t n) {
    return (__mmask8)((1u << (n < 0 ? 0 : n > 8 ? 8 : n)) - 1u);
}
"""

# What emitted text needs is in the identifiers it spells.  Its ISA level:
# register types (_VREG_CTYPE), intrinsic names (@instr templates) and the
# helper calls above.  The C library: heap buffers (gen_alloc), floor
# division by anything but 2^k (binop_str), and <math.h>'s constants
# (const_str) and C99 functions with their f / l twins (an extern's template).
# A local variable of one of these names only adds a header it shadows.
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_ISA_512 = ("_mm512_", "__m512", "__mmask", "repro_mask")
_ISA_X86 = re.compile(r"_mm\d*_|__m\d|repro_avx2_")
_STDLIB = {"calloc", "malloc", "realloc", "free", "abs", "labs", "llabs"}
_FLOOR_DIV = {"repro_fdiv", "repro_fmod"}
_LIBM = {"NAN", "INFINITY", "HUGE_VAL", "HUGE_VALF", "HUGE_VALL"} | {
    name + twin
    for name in (
        "acos asin atan atan2 cos sin tan acosh asinh atanh cosh sinh tanh exp exp2 expm1 frexp ilogb "
        "ldexp log log10 log1p log2 logb modf scalbn scalbln cbrt fabs hypot pow sqrt erf erfc lgamma "
        "tgamma ceil floor nearbyint rint lrint llrint round lround llround trunc fmod remainder remquo "
        "copysign nan nextafter nexttoward fdim fmax fmin fma isnan isinf isfinite isnormal signbit fpclassify"
    ).split()
    for twin in ("", "f", "l")
}


def _preamble(body: str) -> str:
    """The preamble of a unit whose emitted functions and globals are
    ``body``: only the headers and helper blocks it uses.  A scalar unit
    includes no x86 header at all, and a unit that neither allocates on the
    heap, nor calls libm, nor divides by anything but a power of two, none
    but the C99 types."""
    names = set(_IDENTIFIER.findall(body))
    bits = (
        512 if any(n.startswith(_ISA_512) for n in names)
        else 256 if any(_ISA_X86.match(n) for n in names)
        else 0
    )
    head = _C99_BLOCK
    if names & _STDLIB:
        head += _STDLIB_H
    if names & _LIBM:
        head += _MATH_H
    blocks = [head]
    if names & _FLOOR_DIV:
        blocks.append(_FLOOR_DIV_HELPERS)
    if bits:
        blocks += [_X86_LEAN_256 + (_X86_LEAN_512 if bits == 512 else ""), _AVX2_HELPERS]
    if bits == 512:
        blocks.append(_AVX512_HELPERS)
    return "\n".join(blocks)


def _with_wide_headers(unit: NativeUnit) -> NativeUnit:
    """``unit`` with the whole umbrella header in place of its sub-headers
    (the escape of :func:`repro.backend.native.compile_native`): same helpers,
    same kernel text.  A scalar unit has none and comes back unchanged."""
    for lean in (_X86_LEAN_256 + _X86_LEAN_512, _X86_LEAN_256):
        if lean in unit.source:
            return NativeUnit(unit.name, unit.source.replace(lean, _X86_WIDE, 1), unit.argspec)
    return unit


def _emit(root: N.ProcDef, options: CodegenOptions, *, static: bool = False):
    gen = _CGen(root, options)
    text, argspec = gen.gen_proc(static=static)
    return text, argspec, gen.globals


def proc_to_c(procedure, *, static: bool = False, options: Optional[CodegenOptions] = None) -> str:
    """Lower one procedure to a C function definition.

    The text assumes a unit preamble is in scope (see :func:`compile_to_c`
    and :func:`emit_unit`).  Raises :class:`CodegenError` — with the printed
    form of the offending statement — for anything that cannot be lowered.
    """
    root = procedure._root if hasattr(procedure, "_root") else procedure
    text, _spec, _globals = _emit(root, options or CodegenOptions(), static=static)
    return text


def compile_to_c(procedures, header_name: str = "kernels", options: Optional[CodegenOptions] = None) -> str:
    """Lower a list of procedures into a single, compilable C translation unit."""
    if not isinstance(procedures, (list, tuple)):
        procedures = [procedures]
    options = options or CodegenOptions()
    funcs, globs = [], []
    for p in procedures:
        root = p._root if hasattr(p, "_root") else p
        text, _spec, g = _emit(root, options)
        funcs.append(text)
        for item in g:
            if item not in globs:
                globs.append(item)
    body = "\n".join(globs + [f + "\n" for f in funcs])
    return "\n".join([_preamble(body), f"// generated by repro (Exo 2 reproduction) — {header_name}", "", body])


def emit_unit(procedure, options: Optional[CodegenOptions] = None) -> NativeUnit:
    """Emit one procedure as a self-contained translation unit for the native
    execution backend (:mod:`repro.backend.native`), together with the
    ctypes-facing argument spec of the calling convention.  The unit exports
    that convention too, as the string constant :data:`ABI_SYMBOL`."""
    root = procedure._root if hasattr(procedure, "_root") else procedure
    options = options or CodegenOptions()
    text, argspec, globs = _emit(root, options)
    body = "\n".join(globs + [text])
    abi = json.dumps({"name": root.name, "argspec": argspec}, separators=(",", ":"))
    # JSON (ASCII, no control character) quoted as a JSON string is a C string literal
    export = f"const char {ABI_SYMBOL}[] = {json.dumps(abi)};\n"
    return NativeUnit(root.name, _preamble(body) + "\n" + body + "\n" + export, argspec)
