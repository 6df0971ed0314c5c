"""``service_mix``: the resident schedule service under a seeded request mix.

One ``python -m repro.service`` subprocess with a private state directory;
two blocking connections issue requests closed-loop: 95 % warm **hits**
over 16 bindings (blur/unsharp knob bindings and level-1 kernels, all
sent as ``{"source": ...}``), 4 % ``replay_trace`` of the blur/unsharp
traces, 1 % cold **misses**: level-2 gemv variants never seen before, each
submitted as source under a name of its own.  This is the only
workload where wire encode/decode, the event loop, the thread pool and the
journal do most of the work.

Requests run in blocks of 100, one stream per connection (the first sends
the replays and the miss, the second only hits: see ``_make_block``);
between blocks both connections pause and
the machine-speed probe visits the generator's CPU and the service's CPU,
so a block is rescaled by the speed of the two cores it ran on.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import env
from .. import kernels as K
from .. import surface as R
from ..spans import calibrated_ms
from ..spans import median_ms as span_ms
from ..stats import timing_row
from .base import OpClass, Samples, Workload

BLOCK = 100
REPLAYS_PER_BLOCK = 4
MISSES_PER_BLOCK = 1
CONNECTIONS = 2
PINGS = 200

@dataclass(frozen=True)
class Request:
    kind: str  # hit | replay | miss
    key: str  # the pair's item label


#: The blur/unsharp knob bindings the service is warmed with.  Fixed: what a
#: binding costs to schedule, to replay and to ship (its reply size) depends
#: on all three knobs, and runs with different seeds must do equal work.
HALIDE_BINDINGS = [
    {"tile_y": 16, "tile_x": 128, "vec": 8},
    {"tile_y": 32, "tile_x": 256, "vec": 8},
    {"tile_y": 16, "tile_x": 256, "vec": 16},
    {"tile_y": 32, "tile_x": 128, "vec": 16},
]


def warm_pairs(rng: random.Random) -> List[K.Pair]:
    """16 bindings the service is warmed with: the four knob bindings above
    for blur and for unsharp, and a seeded variant of each level-1 kind."""
    pairs = [K.halide_pair(kind, None, b) for kind in ("blur", "unsharp") for b in HALIDE_BINDINGS]
    # over the wire a level-1 schedule is built for its default machine
    pairs += [
        K.l1_pair(rng.choice(variants), "AVX2", interleave)
        for variants, interleave in K.L1_KINDS.values()
    ]
    return pairs


#: Level-2 variants whose cold scheduling costs about the same (rows=2: 67 to
#: 80 ms whatever the precision, the transposition or ``cols``), so the miss
#: latency does not depend on which ones a seed draws.
MISS_KERNELS = K.L2_KINDS["gemv"][0]


def miss_pair(rng: random.Random, index: int) -> K.Pair:
    """A binding the service has never seen: a seeded gemv variant and
    ``cols``, submitted as source under a name of its own — what a user's
    own kernel looks like to the service."""
    kernel = rng.choice(MISS_KERNELS)
    base = K.l2_pair(kernel, "AVX2", 2, rng.choice(K.KNOB_VALUES))
    name = f"{kernel}_user{index}"
    source = base.source.replace(f"def {kernel}(", f"def {name}(", 1)
    return K.Pair(f"{name}{base.item[len(kernel):]}", "l2", kernel, source, base.schedule, base.knobs, base.schedule_ref)


class _RawConnection:
    """The client's three steps as separate calls, so the traced run can
    put a span around each: encode, send-to-reply, decode."""

    def __init__(self, address: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60.0)
        self.sock.connect(address)
        self.rfile = self.sock.makefile("rb")
        self.ids = itertools.count(1)
        self.reply_bytes: List[int] = []

    def schedule(self, tracer, **fields) -> dict:
        with tracer.span("encode", "service"):
            data = R.encode_message(R.request(f"r{next(self.ids)}", "schedule", **fields))
        with tracer.span("send_to_reply", "service"):
            self.sock.sendall(data)
            line = self.rfile.readline()
        with tracer.span("decode", "service"):
            msg = R.decode_message(line)
        self.reply_bytes.append(len(line))
        if not msg.get("ok"):
            raise RuntimeError(f"service error: {msg.get('error')}")
        return msg["result"]

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()


class ServiceMix(Workload):
    name = "service_mix"
    has_server = True
    # one item per kind.  A request's latency has two modes: alone (a hit
    # ~2 ms), or while the other connection's request holds the server's
    # GIL (a hit ~4 ms); how many requests meet one decides where a median
    # falls, and it jumps from run to run.  The mean does not.
    classes = (
        OpClass("hit", "mean", headline=True),
        OpClass("replay", "mean"),
        OpClass("miss", "mean"),
    )

    # -- lifecycle -----------------------------------------------------------

    server = None
    clients: List[R.ServiceClient] = ()

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.warm = warm_pairs(rng)
        if self.quick:
            self.warm = self.warm[:2] + self.warm[-2:]
        # replays and hits of one family cost alike; a mix of the two
        # families would put the median between two modes
        self.replayed = [p for p in self.warm if p.family in ("blur", "unsharp")]
        self.pairs = {p.item: p for p in self.warm}
        self.plan_seed = rng.random()

    def setup(self, tracer) -> None:
        self.plan_rng = random.Random(self.plan_seed)
        self.next_miss = 0
        self._start_server()
        self.clients = [R.ServiceClient(self.address, timeout_s=60.0) for _ in range(CONNECTIONS)]
        self.traces: Dict[str, dict] = {}
        self.replies: List[Tuple[Request, dict]] = []
        for i, p in enumerate(self.warm):
            reply = self.clients[i % CONNECTIONS].schedule(**self._fields(Request("miss", p.item)))
            self.traces[p.item] = reply["trace"]
            self.replies.append((Request("miss", p.item), _summary(reply)))
            self.clock.split()

    def _start_server(self) -> None:
        state = self.sandbox.fresh("service")
        # relative to the working directory: AF_UNIX paths are at most 107 bytes
        self.address = os.path.relpath(os.path.join(state, "service.sock"))
        if len(self.address) > 100:
            raise RuntimeError(f"socket path too long for AF_UNIX: {self.address}")
        src = str(env.REPO_ROOT / "src")
        child_env = dict(os.environ, PYTHONUNBUFFERED="1")
        child_env["PYTHONPATH"] = src + (os.pathsep + child_env["PYTHONPATH"] if child_env.get("PYTHONPATH") else "")
        self.server = subprocess.Popen(
            [sys.executable, "-m", R.SERVICE_MODULE, "--state-dir", state, "--socket", self.address, "--quiet"],
            env=child_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if self.cpus[1] is not None:
            env.set_affinity(self.server.pid, [self.cpus[1]])
        line = self.server.stdout.readline()
        if "listening on" not in line:
            self.teardown()
            raise RuntimeError(f"service failed to start: {line!r}")

    def teardown(self) -> None:
        for c in self.clients:
            c.close()
        self.clients = []
        if self.server is None:
            return
        try:
            if self.server.poll() is None:
                try:
                    with R.ServiceClient(self.address, timeout_s=10.0) as c:
                        c.shutdown()
                    self.server.wait(timeout=10)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait(timeout=10)
            self.server.stdout.close()
            self.server = None

    # -- requests ------------------------------------------------------------

    def _fields(self, r: Request) -> dict:
        p = self.pairs[r.key]
        # as source: the server's parse cache answers it; by "ref" it would
        # call make_blur() and parse again on every hit
        proc = {"source": p.source}
        if r.kind == "replay":
            return {"proc": proc, "schedule": {"trace": self.traces[r.key]}, "knobs": {}, "stream": False}
        return {"proc": proc, "schedule": p.schedule_ref, "knobs": dict(p.knobs), "stream": False}

    def _block(self) -> List[List[Request]]:
        """The next 100 requests (see ``_make_block``)."""
        streams, misses = _make_block(self.plan_rng, self.warm, self.replayed, self.next_miss)
        self.next_miss += len(misses)
        self.pairs.update((p.item, p) for p in misses)
        return streams

    def op_list(self):
        first, _ = _make_block(random.Random(self.plan_seed), self.warm, self.replayed, 0)
        return [(r.kind, r.key) for stream in first for r in stream]

    def _run_block(self, streams: List[List[Request]], callers) -> List[Tuple[Request, int, Optional[dict], Optional[str]]]:
        """Each connection sends its own stream, the next request only after
        the previous reply; the block ends when both are through."""
        done: List[Tuple[Request, int, Optional[dict], Optional[str]]] = []

        def worker(call, stream):
            for r in stream:
                fields = self._fields(r)
                t0 = time.perf_counter_ns()
                try:
                    reply, why = call(r, fields), None
                except Exception as exc:  # noqa: BLE001 — a refused request is a result
                    reply, why = None, f"{type(exc).__name__}: {exc}"
                done.append((r, time.perf_counter_ns() - t0, reply and _summary(reply), why))

        threads = [threading.Thread(target=worker, args=pair) for pair in zip(callers, streams)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return done

    def measure(self, seconds: float, tracer=None) -> Samples:
        samples = Samples()
        traced = tracer is not None and tracer.enabled
        raw = [_RawConnection(self.address) for _ in range(CONNECTIONS)] if traced else []

        def traced_call(conn):
            def call(r, fields):
                with tracer.span(r.kind, "bench", item=r.key):
                    return conn.schedule(tracer, **fields)

            return call

        callers = [traced_call(c) for c in raw] or [
            (lambda r, fields, c=c: c.schedule(**fields)) for c in self.clients
        ]
        t_start = time.perf_counter()
        try:
            while time.perf_counter() - t_start < seconds:
                block = self._block()
                t0 = time.perf_counter()
                done = self._run_block(block, callers)
                wall = time.perf_counter() - t0
                self.clock.lap(None, wall)
                ((_, calibrated),) = self.clock.settle(force=True)
                scale = calibrated / wall
                samples.measured_s += calibrated
                samples.pass_s.append(calibrated)
                for r, ns, summary, why in done:
                    samples.attempted += 1
                    if why is not None:
                        samples.fail(r.kind, r.key, why)
                        continue
                    self.replies.append((r, summary))
                    samples.add(r.kind, r.kind, ns * scale, ns)
        finally:
            self.reply_bytes = [n for c in raw for n in c.reply_bytes]
            for c in raw:
                c.close()
        return samples

    # -- correctness ---------------------------------------------------------

    def verify(self, samples: Samples) -> None:
        """Every reply must carry the ``state_hash`` an independent in-process
        application of the same schedule yields, the hash of the code it
        returns, and the cache tier its kind implies."""
        expected: Dict[str, str] = {}
        self.local_cache = R.ReplayCache()
        for r, s in self.replies:
            if r.key not in expected:
                p = self.pairs[r.key]
                out = p.schedule.apply(K.parse(p), p.knobs, cache=self.local_cache)
                expected[r.key] = R.state_hash(out)
            tiers = {"hit": ("hit", "coalesced"), "replay": ("replay", "coalesced"), "miss": ("miss",)}[r.kind]
            if s["state_hash"] != expected[r.key]:
                samples.fail(r.kind, r.key, "reply state_hash differs from the in-process schedule")
            elif s["state_hash"] != s["code_hash"]:
                samples.fail(r.kind, r.key, "reply state_hash is not the hash of the code it carries")
            elif s["cache"] not in tiers:
                samples.fail(r.kind, r.key, f"answered from tier {s['cache']!r}, expected one of {tiers}")
        self.replies = []

    # -- reporting -----------------------------------------------------------

    def named_metrics(self, samples: Samples) -> Dict[str, float]:
        out = {"service.rps": BLOCK / statistics.median(samples.pass_s)}
        for kind in ("hit", "replay", "miss"):
            times = [t for v in samples.of_class(kind).values() for t in v]
            if times:
                out[f"service.{kind}_p50_ms"] = statistics.median(times) / 1e6
        return out

    def layer_probes(self, tracer) -> Dict[str, float]:
        spans = tracer.spans
        out: Dict[str, Optional[float]] = {
            f"service.{step}_us": ms * 1e3
            for step in ("encode", "decode")
            if (ms := span_ms(spans, step)) is not None
        }
        if self.reply_bytes:
            out["service.reply_bytes_p50"] = float(statistics.median(self.reply_bytes))
        hit_spans = [calibrated_ms(s) for s in spans if s["name"] == "hit" and s["layer"] == "bench"]
        if hit_spans:
            row = timing_row(hit_spans)
            out["service.hit_tail_ms"] = row["tail"]
            out["service.overhead_over_api_ms"] = row["p50"] - self._local_hit_ms(tracer)
        c = self.clients[0]
        _, ping_ms = self.probe(tracer, "ping", "service", lambda: [c.ping() for _ in range(PINGS)], n=PINGS)
        out["service.ping_us"] = ping_ms * 1e3 / PINGS
        n = 60 if self.quick else 400
        keys = [p.item for p in self.warm]
        for conns in (1, 2):
            hits = [Request("hit", keys[i % len(keys)]) for i in range(n)]
            streams = [hits[i::conns] for i in range(conns)]
            callers = [(lambda r, fields, c=c: c.schedule(**fields)) for c in self.clients[:conns]]
            done, ms = self.probe(tracer, "hits", "service", lambda: self._run_block(streams, callers), connections=conns)
            out[f"service.rps_{conns}c"] = len(done) / (ms / 1e3)
        stats = c.stats()  # the service's own request type; read defensively
        out["service.coalesced"] = float(stats.get("coalesced", 0))
        out["service.errors"] = float(stats.get("errors", 0))
        return {k: v for k, v in out.items() if v is not None}

    def _local_hit_ms(self, tracer) -> float:
        """What the same hit costs without the service: a warm in-process
        ``ReplayCache`` (filled by ``verify``)."""
        procs = [(p, K.parse(p)) for p in self.warm]

        def hits():
            for p, proc in procs:
                p.schedule.apply(proc, p.knobs, cache=self.local_cache)

        hits()  # the parsed procedures are new objects: let the cache see them once
        reps = 20
        _, ms = self.probe(tracer, "apply", "api", lambda: [hits() for _ in range(reps)], tier="hit")
        return ms / (reps * len(procs))


def _make_block(rng: random.Random, warm, replayed, next_miss: int) -> Tuple[List[List[Request]], List[K.Pair]]:
    """100 requests as one stream per connection.  Which keys are asked for
    comes from the seed; the shape does not, because a block's duration is
    what ``ops_per_s`` is made of.

    The first connection sends everything that makes the server parse (the
    replays: patterns; the miss: new source), the second the hits (the
    parse cache answers those); both take about as long.  So two parsing
    requests are never in flight together: CPython 3.11's ``ast`` is not
    thread-safe, and once in ~10^4 overlapping parses a server worker
    answered ``AST constructor recursion depth mismatch``.  That is a defect
    for a robustness PR to fix in the service; a benchmark needs workloads
    on which no operation fails."""
    misses = [miss_pair(rng, next_miss + i) for i in range(MISSES_PER_BLOCK)]
    parsing = [Request("replay", rng.choice(replayed).item) for _ in range(REPLAYS_PER_BLOCK)]
    parsing[len(parsing) // 2 : len(parsing) // 2] = [Request("miss", p.item) for p in misses]
    hits = [Request("hit", rng.choice(warm).item) for _ in range(BLOCK - len(parsing))]
    return [parsing, hits], misses


def _summary(reply: dict) -> dict:
    """What ``verify`` needs of a reply (replies are ~15 KB; thousands arrive)."""
    return {
        "state_hash": reply.get("state_hash"),
        "cache": reply.get("cache"),
        "code_hash": hashlib.sha256(str(reply.get("proc")).encode()).hexdigest()[:16],
    }

