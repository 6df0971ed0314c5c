"""BLAS library tests: every kernel keeps its semantics after scheduling."""
from __future__ import annotations

import numpy as np
import pytest

from repro.api import ReplayCache
from repro.blas import (
    LEVEL1_KERNELS, LEVEL2_KERNELS, SGEMM, all_level1_names, level1_reference, level2_reference,
    level3_schedule, level3_space, optimize_level_1, optimize_level_2_general, schedule_sgemm,
    sgemm_micro_kernel,
)
from repro.interp import check_equiv, make_random_args, run_proc
from repro.machines import AVX2, AVX512

LEVEL1_FAST = ["sasum", "saxpy", "sdot", "sscal", "scopy", "daxpy", "ddot", "sdsdot"]
LEVEL2_FAST = ["sgemv_n", "sgemv_t", "sger", "dsymv_l", "ssyr_u", "strmv_lnn", "dtrmv_utn"]


@pytest.mark.parametrize("name", LEVEL1_FAST)
def test_level1_schedules_preserve_semantics(name):
    kernel = LEVEL1_KERNELS[name]
    prec = "f64" if name.startswith("d") and name != "dsdot" else "f32"
    opt = optimize_level_1(kernel, "i", prec, AVX2, 2)
    # sizes far beyond the old toy n=45: the compiled engine makes large
    # equivalence checks cheap (1029 exercises the remainder loops too)
    assert check_equiv(kernel, opt, {"n": 1029})
    assert check_equiv(kernel, opt, {"n": 8})


def test_level1_object_code_matches_numpy():
    kernel = LEVEL1_KERNELS["saxpy"]
    args = make_random_args(kernel, {"n": 33})
    expect = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
    run_proc(kernel, **args)
    level1_reference("saxpy", expect)
    assert np.allclose(args["y"], expect["y"], rtol=1e-5)


@pytest.mark.parametrize("name", LEVEL2_FAST)
def test_level2_schedules_preserve_semantics(name):
    kernel = LEVEL2_KERNELS[name]
    prec = "f64" if name.startswith("d") else "f32"
    opt = optimize_level_2_general(kernel, "i", prec, AVX2, 2, 2)
    sizes = {"M": 128, "N": 123} if ("gemv" in name or "ger" in name) else {"N": 128}
    assert check_equiv(kernel, opt, sizes)


@pytest.mark.parametrize("name", ["sgemv_n", "ssymv_u", "strmv_unn"])
def test_level2_object_code_matches_numpy(name):
    kernel = LEVEL2_KERNELS[name]
    sizes = {"M": 9, "N": 11} if "gemv" in name else {"N": 10}
    args = make_random_args(kernel, sizes)
    expect = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
    run_proc(kernel, **args)
    level2_reference(name, expect)
    out = "y" if ("gemv" in name or "symv" in name or "trmv" in name) else "A"
    assert np.allclose(args[out], expect[out], rtol=1e-4, atol=1e-5)


def test_level2_general_body_is_jammed_and_vectorised():
    """``rows`` rows over one shared vector load, an accumulator per row."""
    p = optimize_level_2_general(LEVEL2_KERNELS["sgemv_n"], "i", "f32", AVX2, 2, 2)
    main = str(p.find_loop("jo_u_o"))  # two interleaved vectors per iteration
    assert main.count("avx2_f32_load(shared0[0:8], x[") == 2
    assert main.count("avx2_f32_fma(acc_vec0[0:8]") == 2 and main.count("avx2_f32_fma(acc_vec1[0:8]") == 2
    assert "shared0: f32 @ DRAM" in str(p.find_loop("ji"))  # the scalar tail keeps a scalar
    # a second loop of the same procedure is followed by cursor, not by name
    q = optimize_level_2_general(LEVEL2_KERNELS["ssymv_l"], "i", "f32", AVX2, 1, 2)
    assert "acc_vec0" in str(q) and "avx2_f32_fma(acc_vec1[0:8]" in str(q)


def test_kernel_counts():
    # the library covers the paper's kernel families across two precisions
    assert len(LEVEL1_KERNELS) >= 18
    assert len(LEVEL2_KERNELS) >= 34


def test_sgemm_micro_kernel_avx512():
    uk = sgemm_micro_kernel(AVX512, M_r=2, N_r_vecs=1, precision="f32")
    ref = SGEMM.partial_eval(M=2, N=16)
    assert "fma" in str(uk)
    assert check_equiv(ref, uk, {"K": 192})


def test_schedule_sgemm_equivalent():
    p = schedule_sgemm(AVX2, M_r=2, N_r_vecs=1)
    # 64x64x64 (the ISSUE-2 scale target) plus a ragged shape for edge loops
    assert check_equiv(SGEMM, p, {"M": 64, "N": 64, "K": 64})
    assert check_equiv(SGEMM, p, {"M": 12, "N": 20, "K": 9})


def test_sgemm_tile_is_register_resident_with_k_innermost():
    """The GotoBLAS shape: the C tile is loaded, updated over all of ``k`` in
    registers, and stored — no load or store of C inside the ``k`` loop — and
    nothing the schedule tried was refused."""
    out, trace = level3_schedule(AVX2).apply_traced(SGEMM, cache=ReplayCache())
    assert str(out) == str(schedule_sgemm(AVX2)).replace("sgemm_exo", "sgemm")
    assert "C_reg: f32[6, 2, 8] @ VEC_AVX2" in str(out)  # twelve real registers
    jo = out.find_loop("jo")
    assert jo.body()[0].name() == "io"  # one B panel is reused across all the row blocks
    k = str(jo.find("for k in _: _"))
    assert "C[" not in k and "store" not in k and k.count("for ") == 1
    assert k.count("avx2_f32_fma(C_reg[") == 12 and str(jo).count("avx2_f32_store(C[") == 12
    # the column and row tails stay scalar, k outermost and j contiguous
    col, row = (str(out.find_loop(f"k #{n}")) for n in (1, 2))
    assert "for ji in seq(0, N % 16)" in col and "for ii in seq(0, M % 6)" in row
    assert "avx2" not in col + row
    assert [e.primitive for e in trace.entries if e.kind == "recovered" or e.outcome == "failed"] == []


def test_level3_schedule_bindings_replay_through_a_cache():
    sched, cache = level3_schedule(AVX512), ReplayCache()
    assert level3_space().names() == ["M_r", "N_r_vecs"] and level3_space().size() == 12
    small = sched.apply(SGEMM, {"M_r": 4, "N_r_vecs": 1}, cache=cache)
    default = sched.apply(SGEMM, cache=cache)
    assert "C_reg: f32[4, 1, 16]" in str(small) and "C_reg: f32[6, 2, 16]" in str(default)
    assert sched.apply(SGEMM, {"M_r": 4, "N_r_vecs": 1}, cache=cache) is small
    assert cache.stats() == {"hits": 1, "misses": 2, "entries": 2}
    for p in (small, default):
        assert check_equiv(SGEMM, p, {"M": 13, "N": 37, "K": 5})
