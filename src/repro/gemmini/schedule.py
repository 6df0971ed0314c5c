"""The Gemmini matmul kernel and its scheduling library (Section 6.1.2,
Appendix B).

The schedule lowers a textbook matmul-with-postprocessing onto Gemmini's
16×16-tile instructions: the result tile lives in the accumulator, A/B tiles
are staged through the scratchpad, the output scale is bound into the
configuration state, and — the paper's headline Gemmini example — the
schedule asks the user-level ``hoist_stmt`` (Figure 5) to hoist that
configuration write out of the tile loops.  That step is refused today (no
pattern matches a configuration write, so the write and the store loop stay
in the tile); the trace records the refusal — ROADMAP, "library schedules" (h).
"""

from __future__ import annotations

from ..api import knob, lift_op, try_op
from ..api.schedule import Schedule
from ..frontend.decorators import proc_from_source
from ..machines.gemmini import GEMM_ACCUM, GEMM_SCRATCH, GEMMINI, config_st
from ..primitives import (
    bind_config,
    divide_loop,
    expand_dim,
    fission,
    lift_alloc,
    lift_scope,
    rename,
    replace,
    replace_all,
    set_memory,
    simplify,
)
from ..stdlib.elevate import hoist_stmt
from ..stdlib.tiling import auto_stage_mem, cleanup, tile2D
from ..tune import Param, Space

__all__ = [
    "make_matmul_kernel",
    "matmul_schedule",
    "matmul_space",
    "schedule_matmul_gemmini_exo_style",
]


def make_matmul_kernel(K: int = 512):
    """The starting object code: int8 matmul with scale + ReLU post-processing
    (the simplified form of Appendix B's initial object code)."""
    src = f"""
def matmul_on_gemmini(N: size, M: size, scale: f32, A: i8[N, {K}] @ DRAM, B: i8[{K}, M] @ DRAM, C: i8[N, M] @ DRAM):
    assert N % 16 == 0
    assert M % 16 == 0
    for i in seq(0, N):
        for j in seq(0, M):
            res: i32 @ DRAM
            res = 0.0
            for k in seq(0, {K}):
                res += A[i, k] * B[k, j]
            C[i, j] = relu(acc_scale(res, scale))
"""
    return proc_from_source(src, {"relu": None, "acc_scale": None})


def _hoist_config_write(p):
    """Hoist the ``config_st.scale`` write out of all the loops (Figure 5) so
    every output tile is not preceded by a redundant re-configuration."""
    res = hoist_stmt(p, p.find("config_st.scale = _"))
    return res[0] if isinstance(res, tuple) else res


def _matmul_gemmini_impl(p, tile: int = 16):
    """The Gemmini matmul pipeline (Exo 2 style: a handful of library calls);
    lifted into the Schedule value returned by :func:`matmul_schedule`."""
    p = rename(p, "matmul_on_gemmini_exo2")

    # bind the output scale into Gemmini's store configuration and let the
    # store instruction read it from there
    store = p.find("C[_] = _")
    scale_read = store.rhs().args()[0].args()[1]  # relu(acc_scale(res, scale))
    p = bind_config(p, scale_read, config_st, "scale")

    # tile the (i, j) space into 16x16 output tiles
    p = tile2D(p, "i", "j", ["io", "ii"], ["jo", "ji"], tile, tile)

    # the per-element accumulator becomes a 16x16 accumulator tile
    p = expand_dim(p, "res", tile, "ji")
    p = expand_dim(p, "res", tile, "ii")
    p = lift_alloc(p, "res", n_lifts=2)
    p = set_memory(p, "res", GEMM_ACCUM)

    # split the tile body into init / accumulate / store phases
    ji = p.find_loop("ji")
    p = fission(p, ji.body()[0].after(), n_lifts=2)
    ji2 = p.find_loop("ji #1")
    k_loop = ji2.find("for k in _: _")
    p = fission(p, k_loop.after(), n_lifts=2)

    # re-associate the k loop: block it by 16 and hoist the block loop out of
    # the (ii, ji) tile loops so a whole 16x16x16 block is one instruction
    p = divide_loop(p, "k", tile, ["ko", "ki"], perfect=True)
    p = lift_scope(p, "ko")
    p = lift_scope(p, "ko")

    # stage the A and B tiles into the scratchpad
    ko = p.find_loop("ko")
    p, _ = auto_stage_mem(p, ko.body(), "A", "A_tmp")
    p = set_memory(p, "A_tmp", GEMM_SCRATCH)
    ko = p.find_loop("ko")
    p, _ = auto_stage_mem(p, ko.body(), "B", "B_tmp")
    p = set_memory(p, "B_tmp", GEMM_SCRATCH)

    p = simplify(p)

    # refused today, and the trace says so: no pattern matches a
    # configuration write (ROADMAP, "library schedules" (h))
    p = try_op(p, _hoist_config_write)

    # map loop nests onto Gemmini instructions; the two operand tiles load
    # under configurations of their own (B, staged last, comes first)
    p = replace(p, p.find_loop("i0"), GEMMINI.get("do_ld_i8_id1"))
    p = replace(p, p.find_loop("i0"), GEMMINI.get("do_ld_i8_id2"))
    instrs = [
        GEMMINI.get("do_zero_acc_i32"),
        GEMMINI.get("do_matmul_acc_i8"),
        GEMMINI.get("do_st_acc_i8"),
    ]
    p = replace_all(p, instrs)

    return cleanup(p)


_matmul_op = lift_op(_matmul_gemmini_impl, "gemmini_matmul", register=True)


def matmul_schedule() -> Schedule:
    """The full Gemmini matmul schedule as a first-class value; knob ``tile``
    (default 16) sets the systolic-array tile size."""
    return _matmul_op(knob("tile", 16))


def matmul_space():
    """The tunable domain of :func:`matmul_schedule` — a deliberate
    single-point space: Gemmini's systolic array is 16×16, so ``tile`` has
    exactly one admissible value.  Tuning it degenerates to measuring the one
    candidate, which exercises the autotuner's single-point path."""
    return Space(Param("tile", (16,)))


def schedule_matmul_gemmini_exo_style(p=None, tile: int = 16):
    """The same schedule written as plain Exo would require: every primitive
    spelled out inline, with no reusable library functions.  The resulting
    object code is identical; only the amount of scheduling code differs
    (Figure 6c)."""
    if p is None:
        p = make_matmul_kernel()
    p = rename(p, "matmul_on_gemmini_exo")
    store = p.find("C[_] = _")
    scale_read = store.rhs().args()[0].args()[1]
    p = bind_config(p, scale_read, config_st, "scale")
    p = divide_loop(p, "i", tile, ["io", "ii"], perfect=True)
    p = divide_loop(p, "j", tile, ["jo", "ji"], perfect=True)
    p = lift_scope(p, "jo")
    p = expand_dim(p, "res", tile, "ji")
    p = expand_dim(p, "res", tile, "ii")
    p = lift_alloc(p, "res")
    p = lift_alloc(p, "res")
    p = set_memory(p, "res", GEMM_ACCUM)
    ji = p.find_loop("ji")
    p = fission(p, ji.body()[0].after(), n_lifts=2)
    ji2 = p.find_loop("ji #1")
    k_loop = ji2.find("for k in _: _")
    p = fission(p, k_loop.after(), n_lifts=2)
    p = divide_loop(p, "k", tile, ["ko", "ki"], perfect=True)
    p = lift_scope(p, "ko")
    p = lift_scope(p, "ko")
    ko = p.find_loop("ko")
    p, _ = auto_stage_mem(p, ko.body(), "A", "A_tmp")
    p = set_memory(p, "A_tmp", GEMM_SCRATCH)
    ko = p.find_loop("ko")
    p, _ = auto_stage_mem(p, ko.body(), "B", "B_tmp")
    p = set_memory(p, "B_tmp", GEMM_SCRATCH)
    p = simplify(p)
    p = try_op(p, _hoist_config_write)
    p = replace(p, p.find_loop("i0"), GEMMINI.get("do_ld_i8_id1"))
    p = replace(p, p.find_loop("i0"), GEMMINI.get("do_ld_i8_id2"))
    p = replace_all(
        p,
        [
            GEMMINI.get("do_zero_acc_i32"),
            GEMMINI.get("do_matmul_acc_i8"),
            GEMMINI.get("do_st_acc_i8"),
        ],
    )
    return cleanup(p)
