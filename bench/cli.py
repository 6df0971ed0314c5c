"""Command line of the benchmark.

Two ways in, one implementation:

* ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` runs
  one workload once and prints, as the last line of stdout, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` (what a driver reads);
* ``python3 -m bench [--trace] [--quick]`` runs all five from one command,
  prints every metric by name and unit, and writes one schema-stable record
  under ``bench/out/``.  Each workload runs in a child process of its own
  (the first form): a run's numbers depend on what the process did before —
  its heap, its peak RSS — and must be the ones a driver would see.

Exit code is non-zero when an operation failed, a metric is missing, or a
native workload has no C compiler.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from . import env
from . import surface as R
from .env import load_spec
from .runner import BenchError, run_workload
from .workloads import WORKLOADS

RECORD_SCHEMA = 1
QUICK_SECONDS = 1.0
#: how often the all-workloads run measures a noisy window again (a
#: driver's ``--workload`` run never does: it measures for ``--seconds``)
NOISE_RERUNS = 1


def _format_value(v: float) -> str:
    return f"{v:,.4f}" if abs(v) < 1e4 else f"{v:,.0f}"


def print_result(result: dict, out=sys.stdout) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']}  seed={result['seed']}  {kind}  "
        f"passes={result['passes']}  attempted={result['attempted']}  failed={result['failed']}"
        + ("  NOISY" if result["noisy"] else ""),
        file=out,
    )
    zeros = 0
    for name, m in result["metrics"].items():
        if result["trace"] and m["value"] == 0:
            zeros += 1  # a layer this workload does not touch
            continue
        print(f"  {name:38s} {_format_value(m['value']):>16s} {m['unit']}", file=out)
    if zeros:
        print(f"  ({zeros} metrics of layers this workload does no work in are 0)", file=out)
    if not result["trace"]:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for name, v in result["named"].items():
            print(f"  . {name:36s} {_format_value(v):>16s} {units.get(name, '')}", file=out)
    total = sum(result["layer_self_ms"].values())
    for layer, ms in sorted(result["layer_self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"  self time in {layer:10s} {ms:12.1f} ms  {ms / total:6.1%}", file=out)
    for cls, row in result["class_rows_ms"].items():
        tail = (
            f"p{row['tail_p']:g}={row['tail']:.4f} ms"
            if row["tail_p"] not in (None, 50.0)
            else "no percentile above the median has 10 samples beyond it"
        )
        print(
            f"  [{cls}] n={row['n']}  p50={row['p50']:.4f} ms  {tail}  (raw wall-clock p50={row['raw_p50']:.4f} ms)",
            file=out,
        )
    for why in result["failures"]:
        print(f"  FAILED {why}", file=out)


def driver_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def write_record(results: List[dict], seed: int, seconds: float, path: Optional[str]) -> str:
    record = {
        "schema": RECORD_SCHEMA,
        **env.machine_info(R.find_cc()),
        "seed": seed,
        "seconds": seconds,
        "runs": results,
        "failed_share": sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results)),
        "claim": None,
    }
    if path is None:
        env.OUT_DIR.mkdir(parents=True, exist_ok=True)
        sha = (record["git_sha"] or "nogit")[:12]
        path = str(env.OUT_DIR / f"record-{sha}-seed{seed}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def run_in_child(name: str, args, seconds: float, traced: bool) -> dict:
    """One workload through ``python3 -m bench --workload`` in a fresh
    process; its table goes to our stdout, its full result comes back in a
    file."""
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=env.OUT_DIR)
    os.close(fd)
    argv = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--noise-reruns", str(NOISE_RERUNS), "--result", result_path,
    ]
    if args.quick:
        argv.append("--quick")
    if traced and args.spans:
        argv += ["--spans", f"{args.spans}.{name}.jsonl"]
    try:
        done = subprocess.run(argv, cwd=env.REPO_ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the driver's line
        if done.returncode not in (0, 1):
            raise BenchError(f"{name}: the run exited with code {done.returncode}")
        with open(result_path) as f:
            return json.load(f)
    finally:
        os.unlink(result_path)


def main(argv=None, import_s: float = 0.0) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload and print the driver's JSON line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="length of the timed window")
    ap.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0,
        help="1: traced run, per-layer metrics; 0 (default): untraced, end-to-end metrics",
    )
    ap.add_argument("--quick", action="store_true", help="tiny sizes and windows (smoke test)")
    ap.add_argument("--out", help="where the all-workloads record goes (default bench/out/)")
    ap.add_argument("--spans", help="write the traced run's spans here as JSONL")
    ap.add_argument("--noise-reruns", type=int, default=0, help="measure a noisy window again, at most this often")
    ap.add_argument("--result", help="with --workload: also write the run's full result here as JSON")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(load_spec()["run_seconds"])

    try:
        if args.workload:
            result = run_workload(
                args.workload, args.seed, seconds, bool(args.trace),
                import_s=import_s, quick=args.quick, spans_path=args.spans,
                noise_reruns=args.noise_reruns,
            )
            print_result(result)
            if args.result:
                with open(args.result, "w") as f:
                    json.dump(result, f)
            print(driver_line(result))
            return 0 if result["correct"] else 1

        results = [
            run_in_child(name, args, seconds, traced)
            for name in WORKLOADS
            for traced in ([False, True] if args.trace else [False])
        ]
        path = write_record(results, args.seed, seconds, args.out)
        failed = sum(r["failed"] for r in results)
        print(f"record: {path}")
        print(json.dumps({"failed": failed, "noisy": [r["workload"] for r in results if r["noisy"]], "claim": None}))
        return 0 if failed == 0 else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
