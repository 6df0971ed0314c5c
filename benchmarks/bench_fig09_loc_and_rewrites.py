"""Figure 9: (a) lines-of-code breakdown of the scheduling libraries and
kernels, (b) number of primitive rewrites per kernel family."""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.blas import LEVEL1_KERNELS, LEVEL2_KERNELS, optimize_level_1, optimize_level_2_general
from repro.machines import AVX2
from repro.metrics import generated_c_loc
from repro.primitives import count_rewrites

# the library line count is the one `python tools/src_loc.py --libs` prints
_spec = importlib.util.spec_from_file_location(
    "src_loc", pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_loc.py"
)
src_loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_loc)

REWRITE_KERNELS_L1 = ["sasum", "saxpy", "sdot", "sscal"]
REWRITE_KERNELS_L2 = ["sgemv_n", "sger", "ssymv_l", "strmv_lnn"]


def test_fig09a_loc_breakdown():
    loc = src_loc.libs()

    def lib(package: str) -> int:
        return sum(n for module, n in loc.items() if module.startswith(package))

    ins_lib = loc["stdlib/inspection.py"]
    blas_lib, std_lib, total = lib("blas/"), lib("stdlib/") - ins_lib, sum(loc.values())
    print("\n=== Figure 9a: lines of code ===")
    print(f"  BLAS-lib    (level 1/2/3, schedules)     : {blas_lib}")
    print(f"  std-lib     (vectorize/tiling/ho/elevate): {std_lib}")
    print(f"  ins-lib     (inspection)                 : {ins_lib}")
    print(f"  Halide-lib  (library, schedules)         : {lib('halide/')}")
    print(f"  Gemmini-lib (matmul schedule)            : {lib('gemmini/')}")
    print(f"  all scheduling libraries                 : {total}")
    sched = optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)
    c_loc = generated_c_loc([sched])
    print(f"  generated C for saxpy                    : {c_loc}")
    assert blas_lib > 100 and std_lib > 200 and ins_lib > 50
    # the libraries are user code: this bound may only shrink, except in a
    # change that adds a schedule and says so in CHANGES.md (the register-tiled
    # sgemm micro-kernel took it from 1 216 to 1 227)
    assert total <= 1227
    assert c_loc > 10


def test_fig09b_rewrite_counts():
    print("\n=== Figure 9b: primitive rewrites per kernel ===")
    results = {}
    atomic = {}
    for name in REWRITE_KERNELS_L1:
        with count_rewrites(name) as ctr:
            optimize_level_1(LEVEL1_KERNELS[name], "i", "f32", AVX2, 2)
        results[name], atomic[name] = ctr.total, ctr.atomic_edits
    for name in REWRITE_KERNELS_L2:
        with count_rewrites(name) as ctr:
            optimize_level_2_general(LEVEL2_KERNELS[name], "i", "f32", AVX2, 2, 2)
        results[name], atomic[name] = ctr.total, ctr.atomic_edits
    for name, total in results.items():
        print(f"  {name:10s} {total:6d} rewrites  {atomic[name]:6d} atomic edits")
    # the paper reports hundreds to thousands of rewrites per kernel family;
    # a single variant here performs dozens to hundreds.  The atomic-edit
    # counts come from the EditSession traces and measure the real edit
    # traffic behind those primitive calls.
    assert all(total > 10 for total in results.values())
    assert all(atomic[name] > 0 for name in results)
    assert results["sgemv_n"] > results["saxpy"]


@pytest.mark.benchmark(group="fig09")
def test_fig09_benchmark(benchmark):
    def run():
        with count_rewrites("saxpy") as ctr:
            optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)
        return ctr.total

    benchmark(run)
