"""Figure 6: matmul scheduled with Exo-style inline primitives vs the Exo 2
library, on Gemmini and AVX512, plus the lines-of-code comparison (Fig. 6c)."""
from __future__ import annotations

import pytest

from repro.blas import schedule_sgemm
from repro.gemmini import (
    make_matmul_kernel,
    matmul_schedule,
    schedule_matmul_gemmini_exo_style,
)
from repro.machines import AVX512
from repro.metrics import function_loc
from repro.perf import AVX512_SPEC, GEMMINI_SPEC, CostModel, library_model

SIZES = [64, 128, 256]


def test_fig06a_gemmini_exo_vs_exo2():
    kernel = make_matmul_kernel(K=64)
    exo2 = matmul_schedule().apply(kernel)
    exo1 = schedule_matmul_gemmini_exo_style(kernel)
    cm = CostModel(GEMMINI_SPEC)
    print("\n=== Runtime of Exo / Exo 2 on Gemmini matmul (K=64) ===")
    print("   M = N    ratio")
    for n in SIZES:
        r_exo2 = cm.runtime_cycles(exo2, {"N": n, "M": n})
        r_exo1 = cm.runtime_cycles(exo1, {"N": n, "M": n})
        ratio = r_exo1 / r_exo2
        print(f"  {n:6d}   {ratio:6.2f}")
        assert 0.9 <= ratio <= 1.1  # paper: 0.98-1.05


def test_fig06b_avx512_matmul():
    sgemm = schedule_sgemm(AVX512)
    cm = CostModel(AVX512_SPEC)
    exo_model = library_model("Exo", 512)
    print("\n=== Runtime of Exo / Exo 2 on AVX512 matmul (K=512) ===")
    from repro.blas import kernel_flops_bytes
    for n in SIZES:
        ours = cm.runtime_cycles(sgemm, {"M": n, "N": n, "K": 512})
        flops, bytes_moved = kernel_flops_bytes("sgemm", {"M": n, "N": n, "K": 512})
        theirs = exo_model.runtime_cycles(AVX512_SPEC, flops=flops, bytes_moved=bytes_moved)
        print(f"  {n:6d}   {theirs / ours:6.2f}")
        assert theirs / ours > 0.05


def test_fig06c_lines_of_code():
    exo2_loc = function_loc(matmul_schedule)
    exo_loc = function_loc(schedule_matmul_gemmini_exo_style)
    print("\n=== Figure 6c: scheduling lines of code (Gemmini matmul) ===")
    print(f"  Gemmini reference library (paper): 313")
    print(f"  Exo-style schedule  : {exo_loc}")
    print(f"  Exo 2 library sched.: {exo2_loc}")
    assert exo2_loc <= exo_loc


@pytest.mark.benchmark(group="fig06")
def test_fig06_benchmark(benchmark):
    kernel = make_matmul_kernel(K=64)
    exo2 = matmul_schedule().apply(kernel)
    cm = CostModel(GEMMINI_SPEC)
    benchmark(lambda: cm.runtime_cycles(exo2, {"N": 128, "M": 128}))
