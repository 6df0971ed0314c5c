"""Integration tests of the schedule service: warm cache answers, trace
replay, request coalescing, multi-client correctness, streamed tune progress,
and the observability surface."""

from __future__ import annotations

import shutil
import threading
import time

import pytest

from repro.api.knobs import KnobError
from repro.api.trace import Trace, replay, state_hash
from repro.errors import ParseError
from repro.guard import inject
from repro.service import protocol as P
from repro.tune.runner import _resolve_ref

SAXPY = {"ref": "repro.blas:LEVEL1_KERNELS", "args": ["saxpy"]}
LEVEL1 = {"ref": "repro.blas:level1_schedule"}
BLUR = {"ref": "repro.halide:make_blur"}
BLUR_SCHED = {"ref": "repro.halide:blur_schedule"}

SCALE_SRC = (
    "def scale(n: size, x: f32[n]):\n"
    "    for i in seq(0, n):\n"
    "        x[i] = x[i] * 2.0\n"
)


def test_ping_and_stats_shape(server):
    with server.client() as c:
        assert c.ping()["pong"] is True
        stats = c.stats()
        for key in ("requests", "errors", "coalesced", "inflight", "queue_depth",
                    "latency_ms", "replay_cache", "native_cache", "guard", "retries"):
            assert key in stats, key


def test_schedule_miss_then_hit(server):
    with server.client() as c:
        out1 = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        out2 = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    assert out1["cache"] == "miss"
    assert out2["cache"] in ("hit", "coalesced")
    assert out1["state_hash"] == out2["state_hash"]
    assert out1["trace"] == out2["trace"]
    assert out1["proc_name"] == "saxpy"
    assert isinstance(out1["edit_epoch"], int) and out1["edit_epoch"] > 0


def test_distinct_knobs_are_distinct_entries(server):
    with server.client() as c:
        a = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        b = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 4})
    assert a["cache"] == b["cache"] == "miss"
    assert a["state_hash"] != b["state_hash"]


def test_trace_replay_reproduces_the_schedule(server):
    with server.client() as c:
        out = c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        replayed = c.replay_trace(proc=SAXPY, trace=out["trace"])
    assert replayed["cache"] == "replay"
    assert replayed["state_hash"] == out["state_hash"]


def test_schedule_from_source_and_parse_errors(server):
    empty_trace = Trace().to_dict()
    with server.client() as c:
        out = c.schedule(proc={"source": SCALE_SRC}, schedule={"trace": empty_trace})
        assert out["proc_name"] == "scale"
        bad_dsl = "def broken(n: size, x: f32[n]):\n    for i in range(n):\n        x[i] = 0.0\n"
        with pytest.raises(ParseError):
            c.schedule(proc={"source": bad_dsl}, schedule={"trace": empty_trace})
        with pytest.raises(SyntaxError):
            c.schedule(proc={"source": "def broken(:\n"}, schedule={"trace": empty_trace})
        # the connection survives the failed request
        assert c.ping()["pong"] is True


def test_remote_knob_error_is_a_knob_error_here(server):
    with server.client() as c:
        # warm the cache first (twice: the second is answered from the warm
        # table): unknown knobs must fail even when their defaulted
        # fingerprint would hit a cached entry
        c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        with pytest.raises(KnobError) as err:
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"bogus": 1})
    assert "bogus" in str(err.value)


def test_streamed_schedule_emits_one_event_per_trace_entry(server):
    request = dict(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    cold_events, warm_events = [], []
    with server.client() as c:
        out = c.schedule(**request, stream=True, on_event=cold_events.append)
        # a stream on a warm key is never answered from the warm table
        unstreamed = c.schedule(**request)
        again = c.schedule(**request, stream=True, on_event=warm_events.append)
        stats = c.stats()
    entries = out["trace"]["entries"]
    for events in (cold_events, warm_events):
        assert len(events) == len(entries) > 0
        assert [e["entry"] for e in events] == entries
        assert all(e["kind"] == "trace-entry" for e in events)
    assert again == unstreamed == dict(out, cache="hit")
    assert stats["warm_inline"] == 1


def test_eight_concurrent_clients_zero_lost_or_torn_replies(server):
    n = 8
    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def worker(i):
        try:
            with server.client() as c:
                barrier.wait()
                mine = []
                for k in (1, 2, 4):
                    mine.append(c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": k}))
                mine.append(c.stats())
                results[i] = mine
        except Exception as exc:  # noqa: BLE001
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert all(r is not None for r in results)
    # every client saw the same scheduled result for the same knobs
    for k_idx in range(3):
        hashes = {r[k_idx]["state_hash"] for r in results}
        assert len(hashes) == 1
    with server.client() as c:
        stats = c.stats()
    assert stats["requests"]["schedule"] == n * 3
    assert stats["errors"] == 0


def test_identical_inflight_requests_coalesce(server):
    n = 8
    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def worker(i):
        try:
            with server.client() as c:
                barrier.wait()
                # a cold, heavy request: blur's full tiling+vectorization
                results[i] = c.schedule(proc=BLUR, schedule=BLUR_SCHED)
        except Exception as exc:  # noqa: BLE001
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert len({r["state_hash"] for r in results}) == 1
    with server.client() as c:
        stats = c.stats()
    # at least one follower shared the leader's computation
    assert stats["coalesced"] > 0
    assert stats["coalesced"] == sum(1 for r in results if r["cache"] == "coalesced")


def test_tune_streams_measurements_and_reports_the_best(server):
    spec = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    events = []
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=spec, configs=[{"interleave": 1}, {"interleave": 2}],
                     stream=True, on_event=events.append)
    assert out["ok"] == 2 and out["failed"] == 0
    assert len(events) == 2
    assert [e["index"] for e in events] == [0, 1]
    assert out["best"] is not None and out["best"]["status"] == "ok"
    assert out["warm"] is not None and out["warm"]["key"]


def test_a_tune_measures_each_completed_config_once(server):
    # {} completes to the defaults, {"interleave": 2}: one candidate, as a
    # Tuner would make of the same two points
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=TUNE_SPEC, configs=[{"interleave": 2}, {}])
    assert [m["config"] for m in out["measurements"]] == [{"interleave": 2}]
    assert out["ok"] == 1 and out["failed"] == 0


def test_tune_knob_errors_cost_only_their_candidate(server):
    spec = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=spec, configs=[{"interleave": 1}, {"no_such": 9}])
    assert out["ok"] == 1 and out["failed"] == 1
    statuses = sorted(m["status"] for m in out["measurements"])
    assert statuses == ["knob-error", "ok"]


TUNE_SPEC = {
    "proc": "repro.blas:LEVEL1_KERNELS",
    "proc_args": ["saxpy"],
    "schedule": "repro.blas:level1_schedule",
    "size_env": {"n": 256},
    "repeats": 1,
}


def test_a_restarted_server_starts_from_the_persisted_champion(make_server, tmp_path):
    first = make_server("state", timing_workers=1)
    with first.client(timeout_s=300) as c:
        cold = c.tune(spec=TUNE_SPEC, configs=[{"interleave": 1}, {"interleave": 2}])
    assert cold["warm"]["best"] is None and cold["ok"] == 2
    first.stop()
    assert (tmp_path / "state" / "leaderboard.json").exists()

    second = make_server("state", timing_workers=1)
    with second.client(timeout_s=300) as c:
        warm = c.tune(spec=TUNE_SPEC, configs=[{"interleave": 1}])
    assert warm["warm"]["key"] == cold["warm"]["key"]
    assert warm["warm"]["best"]["config"] == cold["best"]["config"]


def test_a_config_that_killed_a_timing_worker_is_not_measured_again(server, monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)  # the test arms the fault itself
    with server.client(timeout_s=300) as c:
        with inject("worker-crash"):
            first = c.tune(spec=TUNE_SPEC, configs=[{"interleave": 1}])
        assert [m["status"] for m in first["measurements"]] == ["crash"]
        assert first["skipped"] == []
        again = c.tune(spec=TUNE_SPEC, configs=[{"interleave": 1}, {"interleave": 2}])
    assert again["skipped"] == [{"interleave": 1}]
    assert [m["config"] for m in again["measurements"]] == [{"interleave": 2}]
    assert again["ok"] == 1 and again["failed"] == 0


def test_a_service_tune_and_a_tuner_spell_one_config_alike(make_server, tmp_path):
    # level2_schedule has two knobs: the service completes {"rows": 1} with
    # the default cols, as the Tuner does, so the crash it poison-lists is
    # the one a Tuner on the same board skips
    from repro.blas import LEVEL2_KERNELS, level2_schedule
    from repro.tune import Leaderboard, Param, Space, Tuner

    spec = {
        "proc": "repro.blas:LEVEL2_KERNELS",
        "proc_args": ["sgemv_n"],
        "schedule": "repro.blas:level2_schedule",
        "size_env": {"M": 16, "N": 16},
        "repeats": 1,
    }
    svc = make_server("state", timing_workers=1)
    with svc.client(timeout_s=300) as c, inject("worker-crash"):
        out = c.tune(spec=spec, configs=[{"rows": 1}])
    svc.stop()
    assert [m["config"] for m in out["measurements"]] == [{"cols": 2, "rows": 1}]
    assert [m["status"] for m in out["measurements"]] == ["crash"]

    board = Leaderboard(str(tmp_path / "state" / "leaderboard.json"))
    result = Tuner(
        LEVEL2_KERNELS["sgemv_n"], level2_schedule(), Space(Param("rows", (1, 2))),
        {"M": 16, "N": 16}, repeats=1, leaderboard=board,
    ).tune()
    assert result.skipped == [{"cols": 2, "rows": 1}]
    assert [m.config for m in result.measurements] == [{"cols": 2, "rows": 2}]


def test_malformed_frames_get_an_error_response_not_a_hangup(server):
    with server.client() as c:
        c._sock.sendall(b"this is not json\n")
        line = c._rfile.readline()
        msg = P.decode_message(line)
        assert msg["ok"] is False and msg["error"]["kind"] == "ProtocolError"
        # and the connection still works
        assert c.ping()["pong"] is True


def test_latency_percentiles_and_hit_rate_appear_in_stats(server):
    with server.client() as c:
        for _ in range(3):
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
        stats = c.stats()
    lat = stats["latency_ms"]
    assert lat["count"] >= 3
    assert lat["p50"] is not None and lat["p95"] is not None and lat["p50"] <= lat["p95"]
    rc = stats["replay_cache"]
    assert rc["hits"] >= 2 and rc["misses"] >= 1


def test_shutdown_unlinks_the_socket_and_journals_requests(tmp_path, make_server):
    import os

    state = tmp_path / "state"
    h = make_server()
    sock = h.address
    with h.client() as c:
        c.ping()
        c.shutdown()
    h._thread.join(timeout=10)
    assert not os.path.exists(sock)
    journal = state / "requests.jsonl"
    assert journal.exists()
    lines = [l for l in journal.read_text().splitlines() if l.strip()]
    assert len(lines) >= 2  # ping + shutdown


# -- the warm path -----------------------------------------------------------


def _send(c, req_id, **fields) -> None:
    c._sock.sendall(P.encode_message(P.request(req_id, "schedule", **fields)))


def _ask(c, req_id, **fields) -> bytes:
    _send(c, req_id, **fields)
    return c._rfile.readline()


def _dict_then_encode(req_id, out, trace, tier) -> bytes:
    """A schedule reply the way the server built it before replies were
    pre-encoded: the result as a dict, serialized whole."""
    result = {
        "proc": str(out),
        "proc_name": out.name(),
        "state_hash": state_hash(out),
        "edit_epoch": out.edit_epoch(),
        "cache": tier,
        "trace": trace.to_dict(),
    }
    return P.encode_message(P.response(req_id, result))


def _wait_until(cond, what: str, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not cond():
        assert time.monotonic() < deadline, f"timed out waiting until {what}"
        time.sleep(0.005)


@pytest.mark.parametrize(
    "proc, sched, knobs",
    [
        (SAXPY, LEVEL1, {"interleave": 2}),
        (BLUR, BLUR_SCHED, {"tile_y": 16, "tile_x": 128, "vec": 8}),
    ],
    ids=["blas", "halide"],
)
def test_every_schedule_reply_is_byte_identical_to_dict_then_encode(make_server, proc, sched, knobs):
    h = make_server(scheduling_workers=1)
    svc = h.service
    local_proc = _resolve_ref(proc["ref"], tuple(proc.get("args", ())))
    out, trace = _resolve_ref(sched["ref"], ()).apply_traced(local_proc, knobs)
    trace_dict = trace.to_dict()
    replayed = replay(trace_dict, local_proc)
    request = dict(proc=proc, schedule=sched, knobs=knobs, stream=False)
    replay_request = dict(proc=proc, schedule={"trace": trace_dict}, knobs={}, stream=False)

    keyed = []
    coalesce_key = svc._coalesce_key
    svc._coalesce_key = lambda msg: keyed.append(msg["id"]) or coalesce_key(msg)
    gate = threading.Event()
    with h.client() as c1, h.client() as c2:
        lines = {
            ("m", "miss"): _ask(c1, "m", **request),
            (7, "hit"): _ask(c1, 7, **request),  # answered on the event loop
            ("r", "replay"): _ask(c1, "r", **replay_request),
        }
        # two identical replays in flight: the worker is held until the
        # second has met the first's future
        svc._sched_pool.submit(gate.wait, 30)
        try:
            _send(c1, "lead", **replay_request)
            _wait_until(lambda: "lead" in keyed, "the leader is in flight")
            _send(c2, None, **replay_request)
            _wait_until(lambda: None in keyed, "the follower has arrived")
        finally:
            gate.set()
        lines[("lead", "replay")] = c1._rfile.readline()
        lines[(None, "coalesced")] = c2._rfile.readline()

    for (req_id, tier), line in lines.items():
        scheduled = (replayed, Trace.from_dict(trace_dict)) if tier in ("replay", "coalesced") else (out, trace)
        assert line == _dict_then_encode(req_id, *scheduled, tier), (req_id, tier)
        assert P.encode_message(P.decode_message(line)) == line


def test_warm_hit_is_answered_while_the_only_worker_is_blocked(make_server):
    h = make_server(scheduling_workers=1)
    request = dict(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    gate = threading.Event()
    with h.client(timeout_s=10) as c1, h.client(timeout_s=10) as c2:
        first = c1.schedule(**request)
        h.service._sched_pool.submit(gate.wait, 30)
        try:
            _send(c1, "cold", proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 4}, stream=False)
            _wait_until(lambda: c2.stats()["queue_depth"] == 1, "the cold request is queued")
            hit = c2.schedule(**request)  # the pool would answer only after the gate opens
            stats = c2.stats()
        finally:
            gate.set()
        assert hit == dict(first, cache="hit")
        assert stats["warm_inline"] == 1 and stats["queue_depth"] == 1 and stats["inflight"] == 1
        cold = P.decode_message(c1._rfile.readline())
        assert cold["id"] == "cold" and cold["result"]["cache"] == "miss"
        assert c2.stats()["queue_depth"] == 0


def test_warm_table_never_outlives_the_replay_cache_entry(server):
    svc = server.service
    request = dict(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    with server.client() as c:
        miss = c.schedule(**request)
        assert c.schedule(**request) == dict(miss, cache="hit")
        assert c.stats()["warm_inline"] == 1

        # memory tier dropped: the disk tier answers (a replay, so a result
        # with an edit history of its own), on the pool
        svc.cache.clear()
        from_disk = c.schedule(**request)
        assert (from_disk["cache"], from_disk["proc"]) == ("hit", miss["proc"])
        stats = c.stats()
        assert stats["warm_inline"] == 1 and stats["replay_cache"]["disk_hits"] == 1
        assert c.schedule(**request) == from_disk
        assert c.stats()["warm_inline"] == 2  # ... and the republished entry is warm again

        # both tiers dropped: scheduled again, never the kept body
        svc.cache.clear()
        shutil.rmtree(svc.cache.path)
        assert c.schedule(**request) == miss
        assert c.stats()["replay_cache"]["misses"] == 1


def test_a_resident_result_keeps_one_step_of_lineage(server):
    """A scheduled procedure would keep every version it went through alive
    (one per primitive, for ``forward``); what the server keeps resident is
    the result as the direct successor of the request's procedure."""
    with server.client() as c:
        c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    ((out, trace),) = server.service.cache._store.values()
    assert len(trace.applied()) > 10 and len(out._lineage()) == 2


def test_each_inline_hit_is_one_replay_cache_hit(server):
    request = dict(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": 2})
    with server.client() as c:
        c.schedule(**request)
        before = c.stats()
        for n in range(1, 4):
            assert c.schedule(**request)["cache"] == "hit"
            stats = c.stats()
            assert stats["warm_inline"] == before["warm_inline"] + n
            assert stats["replay_cache"]["hits"] == before["replay_cache"]["hits"] + n
        assert stats["replay_cache"]["misses"] == before["replay_cache"]["misses"]
        assert stats["requests"]["schedule"] == 4


def test_the_replay_cache_of_a_resident_server_is_bounded(make_server, monkeypatch):
    """One request more than the bound evicts the least recently used entry;
    the evicted request is then answered from the disk tier, with the same
    scheduled procedure."""
    import repro.service.server as server_module

    monkeypatch.setattr(server_module, "_REPLAY_CACHE_LIMIT", 2)
    srv = make_server()
    requests = [
        dict(proc={"source": SCALE_SRC.replace("2.0", f"{k}.0")}, schedule=LEVEL1, knobs={"interleave": 2})
        for k in (2, 3, 4)
    ]
    with srv.client() as c:
        first = [c.schedule(**r) for r in requests]
        assert [out["cache"] for out in first] == ["miss"] * 3
        assert len({out["state_hash"] for out in first}) == 3
        assert c.stats()["replay_cache"]["entries"] == 2
        again = c.schedule(**requests[0])
        stats = c.stats()["replay_cache"]
    assert (again["cache"], again["proc"], again["state_hash"]) == ("hit", first[0]["proc"], first[0]["state_hash"])
    assert stats["entries"] == 2 and stats["disk_hits"] == 1
