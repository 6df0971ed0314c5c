"""Compare two records, or two sets of runs, by the bounds in BENCHMARK.json.

    python3 -m bench.compare PARENT CHILD

``PARENT`` and ``CHILD`` are record files written by ``python3 -m bench``
or directories of them (a set of runs; pair them by running the two commits
alternately, at least ten times each).  One row is printed per (end-to-end
metric, workload):

* ``worse``      the child's median is worse than the parent's by more than
                 the metric's bound;
* ``unresolved`` the run-to-run spread (inter-quartile distance over median)
                 of either side is wider than the bound, so a change of that
                 size could hide in it: not reported as unchanged, unless
                 every run of the child reads better than every run of the
                 parent;
* ``better``     the pairing rule holds: at least ten pairs, the child wins
                 at least nine tenths of them (ties count for neither), and
                 the medians are further apart than the parent's
                 inter-quartile distance;
* ``same``       none of the above.

The exit code is non-zero on any ``worse`` row or a higher share of failed
operations.  A gain may be claimed from ``better`` rows only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

from .env import load_spec
from .stats import iqr, quartile_spread

MIN_PAIRS = 10
WIN_SHARE = 0.9

Values = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> List[dict]:
    """Every run of a record file, or of every record file in a directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json")
        )
    else:
        files = [path]
    runs: List[dict] = []
    for f in files:
        with open(f) as fh:
            runs.extend(json.load(fh)["runs"])
    return runs


def end_to_end_values(runs: List[dict]) -> Values:
    out: Values = {}
    for r in runs:
        if r["trace"]:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((name, r["workload"]), []).append(m["value"])
    return out


def failed_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(parent: List[float], child: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The row's verdict and the child's relative change in the bad
    direction (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p50, c50 = statistics.median(parent), statistics.median(child)
    worse_by = sign * (c50 - p50) / abs(p50)
    beats = lambda c, p: sign * (c - p) < 0  # noqa: E731
    clean_sweep = all(beats(c, p) for c in child for p in parent)
    spread = max(quartile_spread(parent), quartile_spread(child))
    if spread > bound and not clean_sweep:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(parent, child))
    wins = sum(beats(c, p) for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(c50 - p50) > iqr(parent)
    ):
        return "better", worse_by
    return "same", worse_by


def compare(parent_runs: List[dict], child_runs: List[dict], spec: dict, out=sys.stdout) -> int:
    parent, child = end_to_end_values(parent_runs), end_to_end_values(child_runs)
    regressions = 0
    print(f"{'metric':16s} {'workload':14s} {'parent':>12s} {'child':>12s} {'worse by':>9s}  n   verdict", file=out)
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            key = (m["name"], w["name"])
            if key not in parent or key not in child:
                print(f"{m['name']:16s} {w['name']:14s} {'-':>12s} {'-':>12s} {'-':>9s}  0   missing", file=out)
                regressions += 1
                continue
            row, worse_by = verdict(parent[key], child[key], m["better"], m["bound"])
            regressions += row == "worse"
            print(
                f"{m['name']:16s} {w['name']:14s} {statistics.median(parent[key]):12.4f} "
                f"{statistics.median(child[key]):12.4f} {worse_by:+9.3f}  "
                f"{min(len(parent[key]), len(child[key])):<3d} {row}",
                file=out,
            )
    p_failed, c_failed = failed_share(parent_runs), failed_share(child_runs)
    print(f"failed share: parent {p_failed:.6f}, child {c_failed:.6f}", file=out)
    if c_failed > p_failed:
        print("more operations fail than at the parent: no gain counts", file=out)
        regressions += 1
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_runs(argv[0]), load_runs(argv[1]), load_spec())


if __name__ == "__main__":
    sys.exit(main())
