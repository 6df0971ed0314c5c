"""The schedule service under load: warm-path speedup, multi-client
correctness, and request coalescing.

Starts one service subprocess on a Unix socket, then measures three segments
against it:

* **cold vs warm** — the same set of distinct blur schedules (knob sweeps →
  distinct fingerprints) requested twice.  The first pass pays scheduling;
  the second is answered from the shared replay cache.  *Gate: warm
  throughput ≥ 10× cold.*
* **warm-hit latency** — per-request latency of warm hits on one
  connection: the median alone, then the 95th percentile while a second
  connection streams cold requests (a pool worker is scheduling the whole
  time — the contended case a median hides).  Reported, not gated: the
  numbers depend on how many cores the server gets.
* **concurrent clients** — 8 client threads, each issuing its own request
  mix over one connection.  *Gate: zero lost or torn replies, identical
  results for identical requests, zero server-side errors.*
* **coalescing** — 8 clients fire the SAME cold request simultaneously;
  followers must share the leader's computation.  *Gate: the server's
  ``/stats`` shows coalesced > 0.*

Emits ``BENCH_service.json`` (uploaded by CI) with throughputs, latency
percentiles, and the final server stats snapshot.

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import ServiceClient  # noqa: E402

OUT_PATH = REPO / "BENCH_service.json"

BLUR = {"ref": "repro.halide:make_blur"}
BLUR_SCHED = {"ref": "repro.halide:blur_schedule"}

#: 18 distinct knob bindings -> 18 distinct schedule fingerprints
COLD_SET = [
    {"tile_y": ty, "tile_x": tx, "vec": v}
    for ty in (16, 32)
    for tx in (64, 128, 256)
    for v in (4, 8, 16)
]


#: 9 more bindings, cold until the warm-hit segment's second connection
#: asks for them
CONTENDING_SET = [
    {"tile_y": 8, "tile_x": tx, "vec": v} for tx in (64, 128, 256) for v in (4, 8, 16)
]


def start_server(state_dir: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--state-dir", state_dir, "--quiet"],
        env=env,
        cwd=str(REPO),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        raise RuntimeError(f"service failed to start: {line!r}")
    return proc


def timed_pass(client: ServiceClient, knob_sets) -> tuple:
    """Issue one schedule request per knob set; return (seconds, results)."""
    t0 = time.perf_counter()
    results = [
        client.schedule(proc=BLUR, schedule=BLUR_SCHED, knobs=k) for k in knob_sets
    ]
    return time.perf_counter() - t0, results


def _percentile_ms(latencies_s, q: float) -> float:
    ordered = sorted(latencies_s)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def warm_latency_segment(client: ServiceClient, sock: str, alone_requests: int = 200):
    """Latency of hits on ``client``'s connection: alone, then for as long as
    a second connection streams the cold ``CONTENDING_SET``."""
    tiers = set()

    def one_hit(i: int) -> float:
        t0 = time.perf_counter()
        reply = client.schedule(proc=BLUR, schedule=BLUR_SCHED, knobs=COLD_SET[i % len(COLD_SET)])
        tiers.add(reply["cache"])
        return time.perf_counter() - t0

    alone = [one_hit(i) for i in range(alone_requests)]

    errors = []

    def cold_stream():
        try:
            with ServiceClient(sock, timeout_s=300) as c:
                for k in CONTENDING_SET:
                    c.schedule(proc=BLUR, schedule=BLUR_SCHED, knobs=k, stream=True, on_event=lambda _e: None)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"cold stream: {type(exc).__name__}: {exc}")

    contender = threading.Thread(target=cold_stream)
    contender.start()
    contended = []
    while contender.is_alive():
        contended.append(one_hit(len(contended)))
    contender.join()
    if tiers != {"hit"}:
        errors.append(f"warm-latency requests answered from {sorted(tiers)}, expected only hits")
    return {
        "warm_hit_p50_ms": _percentile_ms(alone, 0.50),
        "warm_hit_p95_ms": _percentile_ms(contended, 0.95),
        "alone_requests": len(alone),
        "contended_requests": len(contended),
    }, errors


def concurrent_segment(sock: str, n_clients: int = 8, requests_each: int = 6):
    """n clients, each with its own connection and request mix."""
    results = [None] * n_clients
    errors = []
    barrier = threading.Barrier(n_clients)

    def worker(i):
        try:
            with ServiceClient(sock, timeout_s=300) as c:
                barrier.wait()
                mine = []
                for r in range(requests_each):
                    k = COLD_SET[(i * requests_each + r) % len(COLD_SET)]
                    mine.append(c.schedule(proc=BLUR, schedule=BLUR_SCHED, knobs=k))
                results[i] = mine
        except Exception as exc:  # noqa: BLE001
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    elapsed = time.perf_counter() - t0
    return elapsed, results, errors


def coalescing_segment(sock: str, n_clients: int = 8):
    """Everyone asks for the same cold schedule at the same instant."""
    cold_knobs = {"tile_y": 8, "tile_x": 32, "vec": 2}  # not in COLD_SET: still cold
    results = [None] * n_clients
    errors = []
    barrier = threading.Barrier(n_clients)

    def worker(i):
        try:
            with ServiceClient(sock, timeout_s=300) as c:
                barrier.wait()
                results[i] = c.schedule(proc=BLUR, schedule=BLUR_SCHED, knobs=cold_knobs)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    return results, errors


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as state:
        proc = start_server(state)
        sock = os.path.join(state, "service.sock")
        try:
            with ServiceClient(sock, timeout_s=300) as c:
                c.ping()

                cold_s, cold_results = timed_pass(c, COLD_SET)
                warm_s, warm_results = timed_pass(c, COLD_SET)
                warm_latency, warm_errors = warm_latency_segment(c, sock)
            failures.extend(warm_errors)
            cold_tp = len(COLD_SET) / cold_s
            warm_tp = len(COLD_SET) / warm_s
            speedup = warm_tp / cold_tp

            if any(r["cache"] != "miss" for r in cold_results):
                failures.append("cold pass was not all misses")
            if any(r["cache"] != "hit" for r in warm_results):
                failures.append("warm pass was not all cache hits")
            if [r["state_hash"] for r in cold_results] != [r["state_hash"] for r in warm_results]:
                failures.append("warm results disagree with cold results")
            if speedup < 10.0:
                failures.append(
                    f"warm throughput only {speedup:.1f}x cold (gate: >= 10x)"
                )

            conc_s, conc_results, conc_errors = concurrent_segment(sock)
            n_conc = sum(len(r) for r in conc_results if r)
            failures.extend(conc_errors)
            if any(r is None for r in conc_results):
                failures.append("a concurrent client lost its replies")
            else:
                by_knobs = {}
                for client_results in conc_results:
                    for r in client_results:
                        by_knobs.setdefault(json.dumps(r["trace"]["fingerprint"]), set()).add(
                            r["state_hash"]
                        )
                if any(len(v) != 1 for v in by_knobs.values()):
                    failures.append("identical requests produced different results (torn reply?)")

            coal_results, coal_errors = coalescing_segment(sock)
            failures.extend(coal_errors)
            if any(r is None for r in coal_results):
                failures.append("a coalescing client lost its reply")
            elif len({r["state_hash"] for r in coal_results}) != 1:
                failures.append("coalesced clients disagree on the result")

            with ServiceClient(sock, timeout_s=60) as c:
                stats = c.stats()
                c.shutdown()
            if stats["coalesced"] <= 0:
                failures.append("no request coalescing observed in /stats")
            if stats["errors"] > 0:
                failures.append(f"server recorded {stats['errors']} errored request(s)")
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    record = {
        "bench": "service",
        "cold": {"requests": len(COLD_SET), "seconds": cold_s, "rps": cold_tp},
        "warm": {"requests": len(COLD_SET), "seconds": warm_s, "rps": warm_tp},
        "warm_over_cold": speedup,
        **warm_latency,
        "concurrent": {
            "clients": 8,
            "requests": n_conc,
            "seconds": conc_s,
            "rps": n_conc / conc_s if conc_s else None,
        },
        "coalesced": stats["coalesced"],
        "warm_inline": stats["warm_inline"],
        "latency_ms": stats["latency_ms"],
        "replay_cache": stats["replay_cache"],
        "requests_by_type": stats["requests"],
        "errors": stats["errors"],
    }
    OUT_PATH.write_text(json.dumps(record, indent=2, default=repr) + "\n")

    print("=== Schedule service under load ===")
    print(f"  cold        : {len(COLD_SET)} requests in {cold_s:.3f}s ({cold_tp:8.1f} req/s)")
    print(f"  warm        : {len(COLD_SET)} requests in {warm_s:.3f}s ({warm_tp:8.1f} req/s)")
    print(f"  speedup     : {speedup:.1f}x (gate: >= 10x)")
    print(
        f"  warm hit    : p50 {warm_latency['warm_hit_p50_ms']:.2f} ms alone ({warm_latency['alone_requests']} requests), "
        f"p95 {warm_latency['warm_hit_p95_ms']:.2f} ms beside a cold stream ({warm_latency['contended_requests']} requests)"
    )
    print(f"  concurrent  : 8 clients x 6 requests in {conc_s:.3f}s, 0 lost")
    print(f"  coalescing  : {stats['coalesced']} follower(s) shared a leader's computation")
    print(f"  latency     : p50 {stats['latency_ms']['p50']:.2f} ms, p95 {stats['latency_ms']['p95']:.2f} ms")
    print(f"  wrote {OUT_PATH.name}")

    if failures:
        print("FAIL:", "; ".join(failures))
        return 1
    print("PASS: warm >= 10x cold; 8 concurrent clients, zero lost replies; coalescing observed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
