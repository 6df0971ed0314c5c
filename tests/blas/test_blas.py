"""BLAS library tests: every kernel keeps its semantics after scheduling."""
from __future__ import annotations

import numpy as np
import pytest

from repro.api import ReplayCache
from repro.blas import (
    LEVEL1_KERNELS, LEVEL2_KERNELS, SGEMM, all_level1_names, all_level2_names, kernel_flops_bytes,
    level1_reference, level2_reference,
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


def _matches_reference(kernel, sizes, reference, name, **tolerance):
    args = make_random_args(kernel, sizes)
    expect = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
    run_proc(kernel, **args)
    reference(name, expect)
    for arg, got in args.items():
        if isinstance(got, np.ndarray):
            assert np.allclose(got, expect[arg], **tolerance), (name, arg)


@pytest.mark.parametrize("name", all_level1_names())
def test_level1_object_code_matches_numpy(name):
    _matches_reference(LEVEL1_KERNELS[name], {"n": 33}, level1_reference, name, rtol=1e-5)


@pytest.mark.parametrize("name", LEVEL2_FAST)
def test_level2_schedules_preserve_semantics(name):
    kernel = LEVEL2_KERNELS[name]
    prec = "f64" if name.startswith("d") else "f32"
    opt = optimize_level_2_general(kernel, "i", prec, AVX2, 2, 2)
    sizes = {"M": 128, "N": 123} if ("gemv" in name or "ger" in name) else {"N": 128}
    assert check_equiv(kernel, opt, sizes)


@pytest.mark.parametrize("name", all_level2_names())
def test_level2_object_code_matches_numpy(name):
    sizes = {"M": 9, "N": 11} if ("gemv" in name or "ger" in name) else {"N": 10}
    _matches_reference(LEVEL2_KERNELS[name], sizes, level2_reference, name, rtol=1e-4, atol=1e-5)


def test_the_references_refuse_an_unknown_kernel():
    with pytest.raises(KeyError, match="unknown level-1 kernel 'snrm2'"):
        level1_reference("snrm2", {})
    with pytest.raises(KeyError, match="unknown level-2 kernel 'sgbmv'"):
        level2_reference("sgbmv", {})
    with pytest.raises(KeyError, match="unknown kernel 'snrm2'"):
        kernel_flops_bytes("snrm2", {"n": 8})


@pytest.mark.parametrize("name, sizes, flops, nbytes", [
    ("sasum", {"n": 10}, 10, 40 + 0),
    ("sdot", {"n": 10}, 20, 80),
    ("sdsdot", {"n": 10}, 20, 80),
    ("dscal", {"n": 10}, 10, 80 + 80),
    ("scopy", {"n": 10}, 10, 80 + 40),
    ("saxpy", {"n": 10}, 20, 120),
    ("sswap", {"n": 10}, 0, 160),
    ("drot", {"n": 10}, 60, 320),
    ("srotm", {"n": 10}, 60, 160),
    ("sgemv_n", {"M": 10, "N": 20}, 400, (200 + 30) * 4),
    ("dgemv_t", {"M": 10, "N": 20}, 400, (200 + 30) * 8),
    ("sger", {"M": 10, "N": 20}, 400, (400 + 30) * 4),
    ("ssymv_l", {"N": 10}, 200, (100 + 20) * 4),
    ("dsyr2_u", {"N": 10}, 200, (100 + 20) * 8),
    ("ssyr_l", {"N": 10}, 100, (100 + 10) * 4),
    ("strmv_lnn", {"N": 10}, 100, (50 + 20) * 4),
    ("sgemm", {"M": 4, "N": 8, "K": 2}, 128, (8 + 16 + 64) * 4),
])
def test_kernel_flops_bytes_per_family(name, sizes, flops, nbytes):
    assert kernel_flops_bytes(name, sizes) == (flops, nbytes)


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
