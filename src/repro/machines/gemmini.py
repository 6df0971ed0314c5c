"""Gemmini accelerator model (Section 6.1.2, Appendix B).

Gemmini is a systolic-array matrix-multiply accelerator with a
software-managed 256 KiB scratchpad, a 16 KiB accumulator, and *configuration
registers* (load strides, output scale, activation) that instructions read
implicitly.  This module provides, externally to the compiler:

* the ``GEMM_SCRATCH`` / ``GEMM_ACCUM`` memory spaces,
* the configuration records,
* ``@instr`` procedures for the 16×16-tile load / store / matmul / zero
  operations, both in their bare form (``do_*``) and in ``*_v2`` form that
  bundles the configuration write (used by ``replace_and_inline`` followed by
  configuration hoisting, exactly as in the paper's Appendix B).

The hardware itself (FPGA/Firesim in the paper) is substituted by the
interpreter for correctness and by :mod:`repro.perf` for timing; configuration
writes are modelled as expensive (fence-like) operations, which is what makes
configuration hoisting show up in the performance results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.procedure import Procedure
from ..frontend.decorators import proc_from_source
from ..ir.config import new_config
from ..ir.memories import Memory, MemoryKind
from ..ir.nodes import InstrInfo
from ..ir.types import f32, index_t, i32

__all__ = ["GemminiMachine", "GEMMINI", "GEMM_SCRATCH", "GEMM_ACCUM"]


GEMM_SCRATCH = Memory("GEMM_SCRATCH", MemoryKind.SCRATCHPAD, capacity_bytes=256 * 1024)
GEMM_ACCUM = Memory("GEMM_ACCUM", MemoryKind.ACCUMULATOR, capacity_bytes=16 * 1024)

# configuration registers
config_ld_id1 = new_config("config_ld_id1", [("src_stride", index_t)])
config_ld_id2 = new_config("config_ld_id2", [("src_stride", index_t)])
config_st = new_config("config_st", [("dst_stride", index_t), ("scale", f32), ("act", index_t)])
config_mm = new_config("config_mm", [("mode", index_t)])


@dataclass
class GemminiMachine:
    """Gemmini machine description for scheduling libraries."""

    name: str = "Gemmini"
    tile: int = 16
    scratchpad: Memory = GEMM_SCRATCH
    accumulator: Memory = GEMM_ACCUM
    scratchpad_bytes: int = 256 * 1024
    accumulator_bytes: int = 16 * 1024
    instructions: Dict[str, object] = field(default_factory=dict)
    instr_pairs: List[tuple] = field(default_factory=list)

    def get(self, name: str):
        return self.instructions[name]


def _mk(env, src: str, c_template: str, cost: float):
    return Procedure(proc_from_source(src, env)._root, instr_info=InstrInfo(c_template, "", cost))


def _build_gemmini() -> GemminiMachine:
    m = GemminiMachine()
    env = {
        "GEMM_SCRATCH": GEMM_SCRATCH,
        "GEMM_ACCUM": GEMM_ACCUM,
        "config_ld_id1": config_ld_id1,
        "config_ld_id2": config_ld_id2,
        "config_st": config_st,
        "config_mm": config_mm,
    }
    T = m.tile

    # -- configuration instructions -------------------------------------------
    m.instructions["config_ld_i8_id1"] = _mk(
        env,
        f"""
def config_ld_i8_id1(stride_val: index):
    config_ld_id1.src_stride = stride_val
""",
        "gemmini_extended3_config_ld({stride_val}, 1.0f, 0, 1);",
        8.0,
    )
    m.instructions["config_ld_i8_id2"] = _mk(
        env,
        f"""
def config_ld_i8_id2(stride_val: index):
    config_ld_id2.src_stride = stride_val
""",
        "gemmini_extended3_config_ld({stride_val}, 1.0f, 0, 2);",
        8.0,
    )
    m.instructions["config_st_acc_i8"] = _mk(
        env,
        f"""
def config_st_acc_i8(scale_val: f32, stride_val: index, act_val: index):
    config_st.scale = scale_val
    config_st.dst_stride = stride_val
    config_st.act = act_val
""",
        "gemmini_extended_config_st({stride_val}, {act_val}, {scale_val});",
        8.0,
    )
    m.instructions["config_matmul"] = _mk(
        env,
        f"""
def config_matmul(mode_val: index):
    config_mm.mode = mode_val
""",
        "gemmini_extended_config_ex(WS, 0, 0, 1, 0, 0);",
        8.0,
    )

    # -- data-movement and compute instructions --------------------------------
    m.instructions["do_zero_acc_i32"] = _mk(
        env,
        f"""
def do_zero_acc_i32(dst: [i32][{T}, {T}] @ GEMM_ACCUM):
    for i in seq(0, {T}):
        for j in seq(0, {T}):
            dst[i, j] = 0.0
""",
        "gemmini_extended_mvin(0, (uint64_t)&{dst_data}, 16, 16);",
        2.0,
    )
    m.instructions["do_ld_i8_id1"] = _mk(
        env,
        f"""
def do_ld_i8_id1(src: [i8][{T}, {T}] @ DRAM, dst: [i8][{T}, {T}] @ GEMM_SCRATCH):
    for i in seq(0, {T}):
        for j in seq(0, {T}):
            dst[i, j] = src[i, j]
""",
        "gemmini_extended_mvin(&{src_data}, (uint64_t)&{dst_data}, 16, 16);",
        2.0,
    )
    m.instructions["do_ld_i8_id2"] = _mk(
        env,
        f"""
def do_ld_i8_id2(src: [i8][{T}, {T}] @ DRAM, dst: [i8][{T}, {T}] @ GEMM_SCRATCH):
    for i in seq(0, {T}):
        for j in seq(0, {T}):
            dst[i, j] = src[i, j]
""",
        "gemmini_extended_mvin2(&{src_data}, (uint64_t)&{dst_data}, 16, 16);",
        2.0,
    )
    m.instructions["do_matmul_acc_i8"] = _mk(
        env,
        f"""
def do_matmul_acc_i8(a: [i8][{T}, {T}] @ GEMM_SCRATCH, b: [i8][{T}, {T}] @ GEMM_SCRATCH, dst: [i32][{T}, {T}] @ GEMM_ACCUM):
    for i in seq(0, {T}):
        for j in seq(0, {T}):
            for k in seq(0, {T}):
                dst[i, j] += a[i, k] * b[k, j]
""",
        "gemmini_extended_preload((uint64_t)&{b_data}, (uint64_t)&{dst_data} | 0x40000000, 16, 16, 16, 16);\n"
        "gemmini_extended_compute_preloaded((uint64_t)&{a_data}, ~((uint64_t)0), 16, 16, 16, 16);",
        16.0,
    )
    m.instructions["do_st_acc_i8"] = _mk(
        env,
        f"""
def do_st_acc_i8(src: [i32][{T}, {T}] @ GEMM_ACCUM, dst: [i8][{T}, {T}] @ DRAM):
    for i in seq(0, {T}):
        for j in seq(0, {T}):
            dst[i, j] = relu(acc_scale(src[i, j], config_st.scale))
""",
        "gemmini_extended_mvout((void*)&{dst_data}, (uint64_t)&{src_data}, 16, 16);",
        2.0,
    )

    # -- *_v2 variants bundling their configuration writes ----------------------
    def v2(name, cfg_src):
        base = m.instructions[name]
        env2 = dict(env)
        env2[name] = base
        return _mk(env2, cfg_src, base._root.instr.c_instr, base._root.instr.cost)

    m.instructions["ld_i8_id1_v2"] = v2(
        "do_ld_i8_id1",
        f"""
def ld_i8_id1_v2(stride_val: index, src: [i8][{T}, {T}] @ DRAM, dst: [i8][{T}, {T}] @ GEMM_SCRATCH):
    config_ld_id1.src_stride = stride_val
    do_ld_i8_id1(src, dst)
""",
    )
    m.instructions["ld_i8_id2_v2"] = v2(
        "do_ld_i8_id2",
        f"""
def ld_i8_id2_v2(stride_val: index, src: [i8][{T}, {T}] @ DRAM, dst: [i8][{T}, {T}] @ GEMM_SCRATCH):
    config_ld_id2.src_stride = stride_val
    do_ld_i8_id2(src, dst)
""",
    )
    m.instructions["st_acc_i8_v2"] = v2(
        "do_st_acc_i8",
        f"""
def st_acc_i8_v2(scale_val: f32, stride_val: index, act_val: index, src: [i32][{T}, {T}] @ GEMM_ACCUM, dst: [i8][{T}, {T}] @ DRAM):
    config_st.scale = scale_val
    config_st.dst_stride = stride_val
    config_st.act = act_val
    do_st_acc_i8(src, dst)
""",
    )

    m.instr_pairs = [
        ("do_ld_i8_id1", "ld_i8_id1_v2"),
        ("do_ld_i8_id2", "ld_i8_id2_v2"),
        ("do_st_acc_i8", "st_acc_i8_v2"),
    ]
    return m


GEMMINI = _build_gemmini()
