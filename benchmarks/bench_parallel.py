"""Multicore scaling of ``par`` loops (ISSUE 10).

Times the parallelized saxpy (map), sdot (privatized reduction), and SGEMM
(outer-loop parallel matmul) kernels in the compiled engine across thread
counts {1, 2, 4, 8}, plus the native C / OpenMP leg when a toolchain is on
PATH.  Three acceptance gates:

* **zero numeric divergence** (unconditional): every thread count must
  reproduce the single-thread result bit-for-bit — maps because writes are
  disjoint, reductions because the partition is fixed and the combine is
  ordered;
* **parallel loops actually dispatch** (unconditional):
  ``obs.count("par.par_loops") > 0`` after the sweep;
* **>=2x scaling** for saxpy or SGEMM at the best thread count — applied
  only when the box has at least 4 cores (a single-core container cannot
  demonstrate scaling, only correctness).

Emits ``BENCH_parallel.json`` with the per-thread-count columns so CI
records the scaling trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.backend import native as native_backend
from repro.blas import LEVEL1_KERNELS, SGEMM
from repro.interp import make_random_args, run_proc
from repro.primitives import parallelize_loop

REPO = Path(__file__).resolve().parent.parent
THREAD_COUNTS = (1, 2, 4, 8)
TARGET_SCALING = 2.0
SCALING_GATED = ("saxpy_n1048576", "gemm_96x96x96")


def _time(setup, fn, repeat: int = 5) -> float:
    fn(setup())  # warmup absorbs compilation for this thread count
    best = float("inf")
    for _ in range(repeat):
        args = setup()
        t0 = time.perf_counter()
        fn(args)
        best = min(best, time.perf_counter() - t0)
    return best


def _tensors(args):
    return {k: v.copy() for k, v in args.items() if isinstance(v, np.ndarray)}


def _bench(name, proc, size_env, elems):
    """Sweep the parallelized kernel over THREAD_COUNTS; cross-check every
    thread count bitwise against threads=1."""
    loop = next(s for s in proc._root.body if hasattr(s, "iter"))
    par = parallelize_loop(proc, loop.iter.name)
    base = make_random_args(proc, size_env, seed=11)

    reference = None
    row = {"elems": elems, "threads": {}, "divergence": False}
    for t in THREAD_COUNTS:
        args = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}
        run_proc(par, backend="compiled", threads=t, **args)
        got = _tensors(args)
        if reference is None:
            reference = got
        elif any(not np.array_equal(got[k], reference[k]) for k in got):
            row["divergence"] = True

        def setup():
            return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}

        best = _time(setup, lambda a, t=t: run_proc(par, backend="compiled", threads=t, **a))
        row["threads"][str(t)] = {
            "seconds": best,
            "elems_per_s": elems / best,
        }
    t1 = row["threads"]["1"]["seconds"]
    for t in THREAD_COUNTS:
        row["threads"][str(t)]["speedup_vs_1"] = t1 / row["threads"][str(t)]["seconds"]
    row["best_speedup"] = max(r["speedup_vs_1"] for r in row["threads"].values())
    return row


def _bench_native(name, proc, size_env, elems):
    """The C / OpenMP leg: same sweep through the native backend."""
    loop = next(s for s in proc._root.body if hasattr(s, "iter"))
    par = parallelize_loop(proc, loop.iter.name)
    base = make_random_args(proc, size_env, seed=11)
    row = {"elems": elems, "threads": {}}
    for t in THREAD_COUNTS:
        def setup():
            return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}

        best = _time(setup, lambda a, t=t: run_proc(par, backend="c", threads=t, **a))
        row["threads"][str(t)] = {"seconds": best, "elems_per_s": elems / best}
    t1 = row["threads"]["1"]["seconds"]
    for t in THREAD_COUNTS:
        row["threads"][str(t)]["speedup_vs_1"] = t1 / row["threads"][str(t)]["seconds"]
    return row


def main(argv) -> int:
    cores = os.cpu_count() or 1
    obs.reset()

    n = 1 << 20
    saxpy = LEVEL1_KERNELS["saxpy"]
    sdot = LEVEL1_KERNELS["sdot"]
    results = {
        "saxpy_n1048576": _bench("saxpy", saxpy, {"n": n}, elems=n),
        "sdot_n1048576": _bench("sdot", sdot, {"n": n}, elems=n),
        "gemm_96x96x96": _bench("gemm", SGEMM, {"M": 96, "N": 96, "K": 96}, elems=96**3),
    }

    par_counts = obs.counters("par.")

    cc = native_backend.find_cc()
    native = None
    if cc is not None:
        native = {
            "cc": cc,
            "openmp": native_backend.openmp_supported(cc),
            "kernels": {},
        }
        if native["openmp"]:
            native["kernels"]["saxpy_n1048576"] = _bench_native(
                "saxpy", saxpy, {"n": n}, elems=n
            )

    gates = {
        "zero_divergence": not any(r["divergence"] for r in results.values()),
        "par_loops_dispatched": par_counts["par_loops"] > 0,
        "scaling_applicable": cores >= 4,
        "scaling_2x": None,
    }
    if gates["scaling_applicable"]:
        gates["scaling_2x"] = any(
            results[k]["best_speedup"] >= TARGET_SCALING for k in SCALING_GATED
        )

    out = {
        "bench": "parallel",
        "cpu_count": cores,
        "thread_counts": list(THREAD_COUNTS),
        "kernels": results,
        "native": native,
        "parallel_stats": par_counts,
        "gates": gates,
    }
    path = REPO / "BENCH_parallel.json"
    path.write_text(json.dumps(out, indent=2) + "\n")

    print(f"=== par-loop scaling (cpu_count={cores}) ===")
    for name, r in results.items():
        cols = " | ".join(
            f"t={t} {r['threads'][str(t)]['elems_per_s'] / 1e6:8.2f} M/s "
            f"({r['threads'][str(t)]['speedup_vs_1']:.2f}x)"
            for t in THREAD_COUNTS
        )
        div = "DIVERGED" if r["divergence"] else "bitwise-identical"
        print(f"  {name:18s}: {cols} | {div}")
    if native and native["kernels"]:
        for name, r in native["kernels"].items():
            cols = " | ".join(
                f"t={t} {r['threads'][str(t)]['elems_per_s'] / 1e6:8.2f} M/s"
                for t in THREAD_COUNTS
            )
            print(f"  C/omp {name:12s}: {cols}")
    print(
        f"  parallel stats: loops={par_counts['par_loops']} chunks={par_counts['chunks']} "
        f"threads_max={par_counts['threads_max']} degrades={par_counts['serial_degrades']}"
    )
    print(f"  wrote {path.name}")

    failed = []
    if not gates["zero_divergence"]:
        failed.append("numeric divergence across thread counts")
    if not gates["par_loops_dispatched"]:
        failed.append("no par loop ever dispatched")
    if gates["scaling_applicable"] and not gates["scaling_2x"]:
        failed.append(
            f"no gated kernel reached {TARGET_SCALING}x scaling on a {cores}-core box"
        )
    elif not gates["scaling_applicable"]:
        print(f"  scaling gate skipped: {cores} core(s) < 4")
    for msg in failed:
        print(f"GATE FAILED: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
