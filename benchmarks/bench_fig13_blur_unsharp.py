"""Figure 13: blur and unsharp masking against Halide, plus schedule LoC and
rewrite counts."""
from __future__ import annotations

import pytest

from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.halide import schedules as halide_schedules_module
from repro.machines import AVX512
from repro.metrics import function_loc
from repro.perf import AVX512_SPEC, CostModel, library_model
from repro.primitives import count_rewrites

IMAGE_SIZES = [(960, 1280), (1920, 2560), (3840, 5120)]


def _flops_bytes_blur(H, W):
    return 4.0 * H * W + 4.0 * (H + 2) * W, 4.0 * ((H + 2) * (W + 2) + H * W)


def _flops_bytes_unsharp(H, W):
    return 7.0 * H * W + 4.0 * (H + 2) * W, 4.0 * ((H + 2) * (W + 2) + 2 * H * W)


def test_fig13ab_blur_unsharp_vs_halide():
    cm = CostModel(AVX512_SPEC)
    halide = library_model("Halide", 512)
    for label, sched, fb in (
        ("blur", blur_schedule(AVX512).apply(make_blur()), _flops_bytes_blur),
        ("unsharp", unsharp_schedule(AVX512).apply(make_unsharp()), _flops_bytes_unsharp),
    ):
        print(f"\n=== Runtime of Halide / Exo 2: {label} ===")
        print("  H x W            ratio")
        for H, W in IMAGE_SIZES:
            ours = cm.runtime_cycles(sched, {"H": H, "W": W})
            flops, bytes_moved = fb(H, W)
            theirs = halide.runtime_cycles(AVX512_SPEC, flops=flops, bytes_moved=bytes_moved)
            ratio = theirs / ours
            print(f"  {H:5d}x{W:5d}   {ratio:8.2f}")
            assert ratio > 0.05  # see EXPERIMENTS.md (paper: 0.94-1.17)


def test_fig13c_loc_and_rewrites():
    with count_rewrites("blur") as blur_ctr:
        blur_schedule(AVX512).apply(make_blur())
    with count_rewrites("unsharp") as unsharp_ctr:
        unsharp_schedule(AVX512).apply(make_unsharp())
    blur_loc = function_loc(blur_schedule)
    unsharp_loc = function_loc(unsharp_schedule)
    print("\n=== Figure 13c ===")
    print(f"  blur    : {blur_ctr.total} rewrites, {blur_loc} schedule LoC (Halide: 5)")
    print(f"  unsharp : {unsharp_ctr.total} rewrites, {unsharp_loc} schedule LoC (Halide: 13)")
    assert blur_ctr.total > 10
    assert blur_loc < 30 and unsharp_loc < 40


@pytest.mark.benchmark(group="fig13")
def test_fig13_benchmark(benchmark):
    sched = blur_schedule(AVX512).apply(make_blur())
    cm = CostModel(AVX512_SPEC)
    benchmark(lambda: cm.runtime_cycles(sched, {"H": 1920, "W": 2560}))
