"""Scheduling throughput: how fast the *scheduler itself* runs.

Unlike the figure benchmarks (which evaluate the cost model on the scheduled
object code), this benchmark times the scheduling pipelines — the work the
edit engine, cursors, and safety checks do — so engine-level changes
(the transactional ``EditSession``, structural-hash memoisation, the
schedule replay cache) are measurable in the bench trajectory.

Pipelines timed:

* the fig06 Gemmini matmul schedule (``matmul_schedule``),
* the level-1 BLAS saxpy schedule (``optimize_level_1``),
* the Figure 12 blur schedule as a combinator ``Schedule`` value, cold
  (full run) and warm (replay-cache hit).

The report is also written to ``BENCH_schedule_throughput.json`` (uploaded by
CI) with per-pipeline wall clock, rewrite/edit counts, ``new_nodes_per_rewrite``
(IR nodes a version allocates that its parent version did not have, averaged
over the pipeline's versions — an edit engine that shares structure keeps it
near the size of an edit, one that copies makes it the size of the procedure)
and replay-cache hit/miss statistics.

Run under pytest (with ``--benchmark-only`` for the pytest-benchmark groups)
or directly::

    PYTHONPATH=src python benchmarks/bench_schedule_throughput.py
"""
from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import ReplayCache
from repro.blas import LEVEL1_KERNELS, optimize_level_1
from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.halide import blur_schedule, make_blur
from repro.ir.build import walk
from repro.machines import AVX2
from repro.primitives import count_rewrites

_OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_schedule_throughput.json")


def _schedule_matmul():
    kernel = make_matmul_kernel(K=64)
    return matmul_schedule().apply(kernel)


def _schedule_saxpy():
    return optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)


def _new_nodes_per_rewrite(scheduled) -> float:
    """Mean, over the versions between ``scheduled`` and the procedure it was
    scheduled from, of the body nodes a version does not share with its
    parent."""
    lineage = scheduled._lineage()  # newest first
    fresh = 0
    for child, parent in zip(lineage, lineage[1:]):
        old = {id(n) for n, _ in walk(parent._root)}
        fresh += sum(1 for n, _ in walk(child._root) if id(n) not in old)
    return fresh / max(1, len(lineage) - 1)


def _time(fn, repeat: int = 5) -> float:
    fn()  # warmup
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_schedule_throughput_report():
    with count_rewrites("matmul") as ctr_mm:
        nodes_mm = _new_nodes_per_rewrite(_schedule_matmul())
    with count_rewrites("saxpy") as ctr_sx:
        nodes_sx = _new_nodes_per_rewrite(_schedule_saxpy())
    t_mm = _time(_schedule_matmul)
    t_sx = _time(_schedule_saxpy)

    # the combinator-built blur schedule: cold apply (records a trace) vs a
    # warm apply against the same starting proc through the replay cache
    blur = blur_schedule()
    blur_input = make_blur()
    cache = ReplayCache()
    with count_rewrites("blur") as ctr_blur:
        blur_out, blur_trace = blur.apply_traced(blur_input, cache=cache)
    nodes_blur = _new_nodes_per_rewrite(blur_out)
    t_blur_cold = _time(lambda: blur.apply(make_blur()))
    t_blur_warm = _time(lambda: blur.apply(blur_input, cache=cache))

    print("\n=== Scheduling throughput (time to schedule, not kernel time) ===")
    print(
        f"  gemmini matmul : {t_mm * 1000:8.1f} ms   "
        f"({ctr_mm.total} rewrites, {ctr_mm.atomic_edits} atomic edits, "
        f"{ctr_mm.atomic_edits / t_mm:,.0f} edits/s, {nodes_mm:.1f} new nodes/rewrite)"
    )
    print(
        f"  blas saxpy     : {t_sx * 1000:8.1f} ms   "
        f"({ctr_sx.total} rewrites, {ctr_sx.atomic_edits} atomic edits, "
        f"{ctr_sx.atomic_edits / t_sx:,.0f} edits/s, {nodes_sx:.1f} new nodes/rewrite)"
    )
    print(
        f"  blur (cold)    : {t_blur_cold * 1000:8.1f} ms   "
        f"({len(blur_trace.applied())} primitives in trace, "
        f"{blur_trace.total_edits()} edits, {len(blur_trace.warnings())} warnings, "
        f"{nodes_blur:.1f} new nodes/rewrite)"
    )
    print(
        f"  blur (cached)  : {t_blur_warm * 1000:8.1f} ms   "
        f"(replay cache: {cache.hits} hits / {cache.misses} misses, "
        f"{t_blur_cold / max(t_blur_warm, 1e-9):,.0f}x faster than cold)"
    )

    record = {
        "schedule_wall_s": {
            "gemmini_matmul": t_mm,
            "blas_saxpy": t_sx,
            "halide_blur_cold": t_blur_cold,
            "halide_blur_cached": t_blur_warm,
        },
        "rewrites": {
            "gemmini_matmul": ctr_mm.total,
            "blas_saxpy": ctr_sx.total,
            "halide_blur": ctr_blur.total,
        },
        "atomic_edits": {
            "gemmini_matmul": ctr_mm.atomic_edits,
            "blas_saxpy": ctr_sx.atomic_edits,
            "halide_blur": ctr_blur.atomic_edits,
        },
        "new_nodes_per_rewrite": {
            "gemmini_matmul": nodes_mm,
            "blas_saxpy": nodes_sx,
            "halide_blur": nodes_blur,
        },
        "blur_trace": {
            "applied": len(blur_trace.applied()),
            "warnings": len(blur_trace.warnings()),
            "replayable": blur_trace.replayable(),
            "fingerprint": blur_trace.fingerprint,
        },
        "replay_cache": dict(cache.stats(), speedup_vs_cold=t_blur_cold / max(t_blur_warm, 1e-9)),
    }
    with open(_OUT_PATH, "w") as f:
        json.dump(record, f, indent=2)
    print(f"  wrote {os.path.normpath(_OUT_PATH)}")

    # sanity floor: scheduling a small kernel should never take seconds, and
    # both pipelines must actually push atomic edits through the engine
    # (no-op primitives like an empty delete_pass record 0 edits, so the
    # atomic count can run below the rewrite count)
    assert t_mm < 5.0 and t_sx < 5.0
    assert ctr_mm.total > 0 and ctr_mm.atomic_edits > 0
    assert ctr_sx.total > 0 and ctr_sx.atomic_edits > 0
    # the cache must actually hit and hits must be far cheaper than cold runs
    assert cache.hits >= 1
    assert t_blur_warm < t_blur_cold


@pytest.mark.benchmark(group="schedule-throughput")
def test_bench_matmul_scheduling(benchmark):
    benchmark(_schedule_matmul)


@pytest.mark.benchmark(group="schedule-throughput")
def test_bench_saxpy_scheduling(benchmark):
    benchmark(_schedule_saxpy)


if __name__ == "__main__":
    test_schedule_throughput_report()
