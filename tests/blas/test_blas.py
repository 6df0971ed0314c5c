"""BLAS library tests: every kernel keeps its semantics after scheduling."""
from __future__ import annotations

import numpy as np
import pytest

from repro.blas import (
    LEVEL1_KERNELS, LEVEL2_KERNELS, all_level1_names, level1_reference, level2_reference,
    optimize_level_1, optimize_level_2_general, schedule_sgemm, sgemm_micro_kernel,
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
    from repro.blas import SGEMM
    uk = sgemm_micro_kernel(AVX512, M_r=2, N_r_vecs=1, precision="f32")
    ref = SGEMM.partial_eval(M=2, N=16)
    assert "fma" in str(uk)
    assert check_equiv(ref, uk, {"K": 192})


def test_schedule_sgemm_equivalent():
    from repro.blas import SGEMM
    p = schedule_sgemm(AVX2, M_r=2, N_r_vecs=1)
    # 64x64x64 (the ISSUE-2 scale target) plus a ragged shape for edge loops
    assert check_equiv(SGEMM, p, {"M": 64, "N": 64, "K": 64})
    assert check_equiv(SGEMM, p, {"M": 12, "N": 20, "K": 9})
