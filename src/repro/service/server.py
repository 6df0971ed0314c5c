"""The schedule service: a long-lived asyncio server over the replay cache.

One resident :class:`ScheduleService` amortizes everything the synchronous
entry points pay per call: parsed procedures, fingerprinted schedules, the
shared on-disk :class:`~repro.api.cache.ReplayCache`, native artifacts, and
tuning results are computed once and served to every client.

Architecture
------------
* **Transport** — newline-delimited JSON (:mod:`repro.service.protocol`)
  over a Unix socket or TCP; one asyncio task per connection, requests on a
  connection answered in order, connections served concurrently.
* **Workers** — pure scheduling (parse → fingerprint → apply/replay) runs on
  a bounded *thread* pool: it is Python-CPU work over now-thread-safe caches
  (see ir/interp refactor), and threads share the warm in-memory tiers.
  Tune measurements run on a bounded pool of *timing* threads, each
  awaiting :func:`repro.tune.runner.evaluate_isolated` — one forked child
  per candidate, under the quarantine guard's watchdog (the spec's
  ``timeout_s``): timing needs an undisturbed process, and a candidate that
  segfaults or outruns its limit costs its own measurement, never the
  server or another candidate.
* **Warm path** — a schedule reply is the response envelope around
  ``{"cache": "<tier>",`` and the canonical JSON of everything that does not
  depend on the tier, and that JSON is encoded once per scheduled result and
  kept in a bounded *warm table* under the request's coalesce key.  A
  non-streaming request whose key is in the table, with nothing in flight
  for it, is answered *on the event loop*: one memory-tier probe of the
  shared ``ReplayCache`` (which stays the source of truth and counts the
  hit; an entry that was cleared, evicted or republished sends the request
  to the pool like any other) and one write of the kept bytes — no parse,
  no fingerprint, no serialization, no thread hand-off, so a hit never
  queues behind a worker that is scheduling.  Everything else (misses,
  replays, streams, the disk tier other processes publish into) runs on the
  pool; tune requests consult the persisted leaderboard before measuring
  anything.
* **Coalescing** — identical in-flight requests (same procedure, schedule,
  knobs) share one computation: followers await the leader's future instead
  of re-scheduling, counted in ``/stats`` as ``coalesced``.
* **Streaming** — ``"stream": true`` schedule requests receive one event per
  applied trace entry; tune requests receive one event per completed
  measurement, so a client renders progress while the sweep runs.
* **Degradation** — execution inherits the backend ladder: a fault (e.g. an
  injected ``kernel-segfault``) poisons the native artifact, the measurement
  degrades to the compiled engine, and the server keeps serving.
* **Observability** — every request emits one structured (JSON) log line
  and one journal entry (``requests.jsonl``, crash-tolerant, torn lines are
  fsck's business); the ``stats`` request type exposes cache hit rates,
  queue depth (jobs submitted to the scheduling pool that no worker has
  started), in-flight, coalescing and answered-on-the-loop counts, and
  p50/p95 latencies.

Run standalone::

    python -m repro.service --socket /tmp/repro.sock --state-dir /tmp/repro
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..api.cache import ReplayCache
from ..api.trace import Trace, replay, state_hash
from ..core.procedure import Procedure
from ..frontend.decorators import proc_from_source
from ..persist import Journal
from ..tune.results import Leaderboard, board_key, config_key
from ..tune.runner import Measurement, _resolve_ref, evaluate_isolated, full_config
from . import protocol as P

__all__ = ["ScheduleService", "SOCKET_NAME", "JOURNAL_NAME"]

log = logging.getLogger("repro.service")

#: Conventional file names inside a service state directory (what
#: ``tools/repro_fsck.py`` recognizes as service state).
SOCKET_NAME = "service.sock"
JOURNAL_NAME = "requests.jsonl"

_LATENCY_WINDOW = 2048
_PARSE_CACHE_LIMIT = 128
_WARM_LIMIT = 256  # ~15 KB a body
# in-memory (procedure, trace) pairs behind the warm table; an evicted entry
# is a disk-tier replay on its next request, not a cold apply
_REPLAY_CACHE_LIMIT = 512


def _percentile(sorted_values: List[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


class _Warm(NamedTuple):
    """What answers a repeat of one schedule request: the ``ReplayCache``
    key to re-validate against, the result that key must still map to, and
    that result's encoded reply body."""

    proc: Procedure
    fingerprint: str
    out: Procedure
    body: bytes


def _reply_body(out: Procedure, trace: Trace) -> bytes:
    """Everything of a schedule result after its ``cache`` field, in
    canonical JSON without the opening brace."""
    rest = {
        "proc": str(out),
        "proc_name": out.name(),
        "state_hash": state_hash(out),
        "edit_epoch": out.edit_epoch(),
        "trace": trace.to_dict(),
    }
    return P.encode_message(rest)[1:-1]


def _reply_line(req_id, tier: str, body: bytes) -> bytes:
    # "cache" sorts before every key of _reply_body, so it leads the result
    return P.encode_response_raw(req_id, b'{"cache":"' + tier.encode() + b'",' + body)


class ScheduleService:
    """The resident compile/tune server.

    ``state_dir`` roots all shared on-disk state: the replay-cache store
    (``replay/``), the leaderboard (``leaderboard.json``), the request
    journal (``requests.jsonl``) and, when serving a Unix socket without an
    explicit path, the socket file (``service.sock``).  Omitting it keeps
    everything in memory (tests).
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        state_dir: Optional[str] = None,
        scheduling_workers: int = 4,
        timing_workers: int = 2,
    ):
        if socket_path is None and host is None:
            if state_dir is not None:
                socket_path = os.path.join(state_dir, SOCKET_NAME)
            else:
                host = "127.0.0.1"
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.state_dir = state_dir

        cache_path = os.path.join(state_dir, "replay") if state_dir else None
        self.cache = ReplayCache(maxsize=_REPLAY_CACHE_LIMIT, path=cache_path)
        self.leaderboard = (
            Leaderboard(os.path.join(state_dir, "leaderboard.json")) if state_dir else Leaderboard()
        )
        self.journal: Optional[Journal] = None
        if state_dir:
            # observability, not correctness: skip the per-line fsync
            self.journal = Journal(os.path.join(state_dir, JOURNAL_NAME), fsync=False)

        self._sched_pool = ThreadPoolExecutor(
            max_workers=scheduling_workers, thread_name_prefix="repro-sched"
        )
        self._timing_pool = ThreadPoolExecutor(
            max_workers=timing_workers, thread_name_prefix="repro-timing"
        )
        self._board_lock = threading.Lock()  # pool workers share the leaderboard

        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._inflight: Dict[str, asyncio.Future] = {}

        self._parse_cache: Dict[str, Procedure] = {}
        self._parse_lock = threading.Lock()
        # coalesce key -> _Warm; workers write under the lock, the event
        # loop reads without it (a dict lookup is atomic)
        self._warm: Dict[str, _Warm] = {}
        self._warm_lock = threading.Lock()

        self._t0 = time.monotonic()
        self._counts: Dict[str, int] = {}
        self._coalesced = 0
        self._warm_inline = 0
        self._errors = 0
        self._queued = 0  # submitted to the scheduling pool, not yet picked up
        self._latencies_ms: deque = deque(maxlen=_LATENCY_WINDOW)
        self._stats_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._stopping = asyncio.Event()
        if self.socket_path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(self.socket_path)) or ".", exist_ok=True)
            if os.path.exists(self.socket_path):
                # a previous server that died without cleanup leaves a stale
                # socket file; binding requires removing it (fsck reports
                # these when no listener is behind them)
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(self._serve_connection, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(self._serve_connection, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        log.info(json.dumps({"event": "listening", "address": self.address()}, sort_keys=True))

    def address(self) -> str:
        return self.socket_path if self.socket_path is not None else f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._sched_pool.shutdown(wait=False)
        self._timing_pool.shutdown(wait=False)
        if self.journal is not None:
            self.journal.close()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # -- connection loop -----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = P.decode_message(line)
                except P.ProtocolError as exc:
                    writer.write(P.encode_message(P.error_response(None, exc)))
                    await writer.drain()
                    continue
                await self._handle_request(msg, writer)
                if self._stopping is not None and self._stopping.is_set():
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_request(self, msg: dict, writer: asyncio.StreamWriter) -> None:
        req_id = msg.get("id")
        req_type = msg.get("type")
        t0 = time.monotonic()
        outcome, cache_state, coalesced = "ok", None, False
        line = None  # a schedule reply arrives encoded; the rest are dicts
        try:
            if req_type == "ping":
                result = {"pong": True, "uptime_s": round(time.monotonic() - self._t0, 6)}
            elif req_type == "stats":
                result = self.stats()
            elif req_type == "shutdown":
                result = {"stopping": True}
                if self._stopping is not None:
                    self._stopping.set()
            elif req_type == "schedule":
                body, cache_state, coalesced = await self._handle_schedule(msg, writer)
                line = _reply_line(req_id, cache_state, body)
            elif req_type == "tune":
                result = await self._handle_tune(msg, writer)
            else:
                raise P.ProtocolError(f"unknown request type {req_type!r} (valid: {P.REQUEST_TYPES})")
            writer.write(line or P.encode_message(P.response(req_id, result)))
        except Exception as exc:  # noqa: BLE001 — one bad request must not kill the server
            outcome = "error"
            writer.write(P.encode_message(P.error_response(req_id, exc)))
        await writer.drain()
        ms = (time.monotonic() - t0) * 1e3
        self._account(req_type, outcome, ms, coalesced)
        record = {
            "id": req_id,
            "request": req_type,
            "outcome": outcome,
            "ms": round(ms, 3),
            "cache": cache_state,
            "coalesced": coalesced,
        }
        if log.isEnabledFor(logging.INFO):
            log.info(json.dumps(record, sort_keys=True, default=repr))
        if self.journal is not None:
            try:
                self.journal.append(record)
            except OSError:  # a full disk must not take the service down
                pass

    def _account(self, req_type, outcome: str, ms: float, coalesced: bool) -> None:
        with self._stats_lock:
            key = req_type if isinstance(req_type, str) else "<invalid>"
            self._counts[key] = self._counts.get(key, 0) + 1
            if outcome != "ok":
                self._errors += 1
            if coalesced:
                self._coalesced += 1
            self._latencies_ms.append(ms)

    # -- schedule requests ---------------------------------------------------

    def _load_proc(self, spec) -> Procedure:
        if not isinstance(spec, dict) or not ("source" in spec or "ref" in spec):
            raise P.ProtocolError('schedule request needs "proc": {"source": ...} or {"ref": ...}')
        if "source" in spec:
            src = spec["source"]
            key = hashlib.sha256(src.encode()).hexdigest()[:32]
            with self._parse_lock:
                got = self._parse_cache.get(key)
            if got is not None:
                return got
            proc = proc_from_source(src)
            with self._parse_lock:
                if len(self._parse_cache) >= _PARSE_CACHE_LIMIT:
                    self._parse_cache.clear()
                self._parse_cache[key] = proc
            return proc
        obj = _resolve_ref(spec["ref"], tuple(spec.get("args", ())))
        if not isinstance(obj, Procedure):
            raise P.ProtocolError(f'proc ref {spec["ref"]!r} is not a Procedure')
        return obj

    def _submit(self, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on the scheduling pool; ``queue_depth`` counts it
        until a worker picks it up."""

        def job():
            with self._stats_lock:
                self._queued -= 1
            return fn(*args)

        with self._stats_lock:  # so the worker's decrement cannot come first
            fut = asyncio.get_running_loop().run_in_executor(self._sched_pool, job)
            self._queued += 1
        return fut

    def _do_schedule(self, msg: dict, key: str) -> Tuple[bytes, Trace, str]:
        """The blocking half of a schedule request (thread-pool worker):
        the reply body of the scheduled procedure, its trace, and the tier
        that answered."""
        proc = self._load_proc(msg.get("proc"))
        sched = msg.get("schedule")
        knobs = dict(msg.get("knobs") or {})
        if not isinstance(sched, dict) or not ("ref" in sched or "trace" in sched):
            raise P.ProtocolError('schedule request needs "schedule": {"ref": ...} or {"trace": ...}')
        if "trace" in sched:
            trace = Trace.from_dict(sched["trace"])
            return _reply_body(replay(trace, proc), trace), trace, "replay"
        schedule = _resolve_ref(sched["ref"], tuple(sched.get("args", ())), sched.get("kwargs"))
        # unknown knobs must fail before the cache probe — the fingerprint
        # resolves them to defaults, which can collide with a legitimately-warm
        # entry and mask the mistake
        schedule.check_knobs(knobs)
        fp = schedule.fingerprint(knobs)
        hit = self.cache.get(proc, fp)
        if hit is not None:
            out, trace = hit
            tier = "hit"
        else:
            # apply *without* the cache (the probe above already counted
            # the miss) and publish the result for the next request
            out, trace = schedule.apply_traced(proc, knobs)
            self.cache.put(proc, fp, out, trace)
            tier = "miss"
        # only now: the knobs were validated, so a repeat of this request
        # may be answered without this worker.  One encoding per result:
        # a hit that finds its own entry reuses the body
        warm = self._warm.get(key)
        if warm is None or warm.out is not out:
            warm = _Warm(proc, fp, out, _reply_body(out, trace))
            with self._warm_lock:
                if len(self._warm) >= _WARM_LIMIT:
                    self._warm.clear()
                self._warm[key] = warm
        return warm.body, trace, tier

    @staticmethod
    def _coalesce_key(msg: dict) -> str:
        work = {k: msg.get(k) for k in ("type", "proc", "schedule", "knobs")}
        return hashlib.sha256(
            json.dumps(work, sort_keys=True, separators=(",", ":"), default=repr).encode()
        ).hexdigest()

    async def _handle_schedule(self, msg: dict, writer: asyncio.StreamWriter) -> Tuple[bytes, str, bool]:
        """The reply body, the tier to put before it, and whether this
        request rode on another's computation."""
        key = self._coalesce_key(msg)
        stream = bool(msg.get("stream"))
        fut = self._inflight.get(key)
        coalesced = fut is not None
        if fut is None:
            warm = None if stream else self._warm.get(key)
            if warm is not None:
                # a republished entry costs one extra counted hit: the pool
                # path below probes again
                hit = self.cache.get_memory(warm.proc, warm.fingerprint)
                if hit is not None and hit[0] is warm.out:
                    self._warm_inline += 1
                    return warm.body, "hit", False
            fut = self._submit(self._do_schedule, msg, key)
            self._inflight[key] = fut
            fut.add_done_callback(lambda _f, _k=key: self._inflight.pop(_k, None))
        body, trace, tier = await asyncio.shield(fut)
        if coalesced:
            tier = "coalesced"
        if stream:
            entries = [e.to_dict() for e in trace.entries]
            for i, entry in enumerate(entries):
                writer.write(
                    P.encode_message(
                        P.event(msg.get("id"), {"kind": "trace-entry", "index": i, "total": len(entries), "entry": entry})
                    )
                )
            await writer.drain()
        return body, tier, coalesced

    # -- tune requests -------------------------------------------------------

    def _tune_configs(self, msg: dict, spec: dict) -> List[dict]:
        """The requested configs (or the space's grid), each completed by
        :func:`full_config` — the spelling a :class:`~repro.tune.Tuner`
        measures and records, so one config has one leaderboard key — and
        deduplicated by that key in request order, as the Tuner's are."""
        schedule = _resolve_ref(
            spec["schedule"], tuple(spec.get("schedule_args", ())), spec.get("schedule_kwargs")
        )
        configs = msg.get("configs")
        space_spec = msg.get("space")
        if configs is not None:
            points = [dict(c) for c in configs]
            swept = {name for c in points for name in c}
        elif space_spec:
            swept = _resolve_ref(
                space_spec["ref"], tuple(space_spec.get("args", ())), space_spec.get("kwargs")
            )
            points = swept.grid()
        else:
            points, swept = [{}], ()
        completed = [full_config(schedule, swept, c) for c in points]
        return list({config_key(c): c for c in completed}.values())

    def _warm_start(self, spec: dict) -> Tuple[Optional[dict], Set[str]]:
        """What a re-tune starts from: the leaderboard's champion for this
        (proc, schedule, machine), if any, and the :func:`config_key` of
        every config whose last measurement crashed or timed out."""
        try:
            proc = _resolve_ref(spec["proc"], tuple(spec.get("proc_args", ())))
            schedule = _resolve_ref(
                spec["schedule"], tuple(spec.get("schedule_args", ())), spec.get("schedule_kwargs")
            )
            key = board_key(proc, schedule)
            with self._board_lock:
                warm = {"key": key, "best": self.leaderboard.best(key)}
                return warm, self.leaderboard.poisoned(key)
        except Exception:  # noqa: BLE001 — warm lookup is best-effort
            return None, set()

    def _publish_sweep(self, key: str, measurements: List[dict]) -> None:
        """Fold a sweep into the shared leaderboard and persist it (a file
        lock and an fsync: pool work, never the event loop's)."""
        with self._board_lock:
            self.leaderboard.record_many(key, [Measurement.from_dict(m) for m in measurements])
            self.leaderboard.save()

    async def _handle_tune(self, msg: dict, writer: asyncio.StreamWriter) -> dict:
        spec = dict(msg.get("spec") or {})
        if "proc" not in spec or "schedule" not in spec:
            raise P.ProtocolError('tune request needs "spec" with "proc" and "schedule" refs')
        loop = asyncio.get_running_loop()
        configs = await self._submit(self._tune_configs, msg, spec)
        warm, poisoned = await self._submit(self._warm_start, spec)
        # one bad knob corner is paid for once per machine, not once per tune
        skipped = [c for c in configs if config_key(c) in poisoned]
        configs = [c for c in configs if config_key(c) not in poisoned]
        stream = bool(msg.get("stream"))
        measurements: List[dict] = []
        for i, cfg in enumerate(configs):
            one = dict(spec, config=dict(cfg))
            m = await loop.run_in_executor(self._timing_pool, evaluate_isolated, one)
            measurements.append(m)
            if stream:
                writer.write(
                    P.encode_message(
                        P.event(msg.get("id"), {"kind": "measurement", "index": i, "total": len(configs), "measurement": m})
                    )
                )
                await writer.drain()
        ok = [m for m in measurements if m.get("status") == "ok" and m.get("time_s") is not None]
        best = min(ok, key=lambda m: m["time_s"]) if ok else None
        if warm is not None and measurements:
            # publish the sweep into the shared leaderboard so the next tune
            # of this (proc, schedule, machine) — by this server or the one
            # restarted on its state directory — starts from a warm champion
            try:
                await self._submit(self._publish_sweep, warm["key"], measurements)
            except Exception:  # noqa: BLE001 — best-effort persistence
                log.warning(json.dumps({"event": "leaderboard-record-failed", "key": warm.get("key")}))
        return {
            "measurements": measurements,
            "best": best,
            "ok": len(ok),
            "failed": len(measurements) - len(ok),
            "skipped": skipped,
            "warm": warm,
        }

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: every shared-cache hit rate, worker-queue
        depth, coalescing count, and request-latency percentiles."""
        with self._stats_lock:
            counts = dict(self._counts)
            errors = self._errors
            coalesced = self._coalesced
            queue_depth = self._queued
            lat = sorted(self._latencies_ms)
        return {
            "uptime_s": round(time.monotonic() - self._t0, 6),
            "requests": counts,
            "errors": errors,
            "coalesced": coalesced,
            "warm_inline": self._warm_inline,
            "inflight": len(self._inflight),
            "queue_depth": queue_depth,
            "latency_ms": {
                "count": len(lat),
                "p50": _percentile(lat, 0.50),
                "p95": _percentile(lat, 0.95),
            },
            "replay_cache": self.cache.stats(),
            "native_cache": obs.counters("native."),
            "fallbacks": obs.counters("fallback."),
            "guard": obs.counters("guard."),
            "retries": obs.counters("retry."),
        }
