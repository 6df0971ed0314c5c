"""The service on malformed and unusual traffic: requests missing their
parts or naming the wrong kind of object, an unknown request type, blank
lines, a sweep over a named space, full caches, a TCP listener and a stale
socket file, and a client talking to a peer that misbehaves."""
from __future__ import annotations

import asyncio
import struct
import socket
import threading

import pytest

import repro.service.server as server_module
from repro.service import ScheduleService, ServiceClient
from repro.service import protocol as P

SAXPY = {"ref": "repro.blas:LEVEL1_KERNELS", "args": ["saxpy"]}
LEVEL1 = {"ref": "repro.blas:level1_schedule"}
SRC = "def f{k}(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = {k}.0\n"
EMPTY = {"version": 1, "schedule": None, "fingerprint": None, "proc": "f", "initial": None, "final": None,
         "entries": []}


@pytest.mark.parametrize("fields, message", [
    ({"schedule": LEVEL1}, 'schedule request needs "proc"'),
    ({"proc": {"ref": "repro.blas:level1_schedule"}, "schedule": LEVEL1},
     "proc ref 'repro.blas:level1_schedule' is not a Procedure"),
    ({"proc": SAXPY}, 'schedule request needs "schedule"'),
])
def test_a_schedule_request_must_name_a_procedure_and_a_schedule(server, fields, message):
    with server.client() as c:
        with pytest.raises(P.ProtocolError, match=message):
            c._call("schedule", **fields)
        assert c.ping()["pong"] is True


@pytest.mark.parametrize("schedule, knobs, message", [
    ({"trace": "not a trace"}, None, 'schedule request "trace" must be a JSON object, not str'),
    ({"trace": ["x"]}, None, 'schedule request "trace" must be a JSON object, not list'),
    (LEVEL1, ["interleave"], 'schedule request "knobs" must be a JSON object, not list'),
    (LEVEL1, "interleave", 'schedule request "knobs" must be a JSON object, not str'),
])
def test_a_trace_or_knobs_that_are_not_an_object_are_protocol_errors(server, schedule, knobs, message):
    # before, the worker answered an AttributeError or a ValueError
    with server.client() as c:
        with pytest.raises(P.ProtocolError, match=message):
            c._call("schedule", proc=SAXPY, schedule=schedule, knobs=knobs)
        assert c.ping()["pong"] is True


def test_unknown_requests_and_tunes_without_a_spec_are_protocol_errors(server):
    with server.client() as c:
        assert c.stats()["latency_ms"]["p50"] is None  # nothing answered yet
        with pytest.raises(P.ProtocolError, match="unknown request type 'frobnicate'"):
            c._call("frobnicate")  # refused before it is sent
        c._sock.sendall(P.encode_message({"id": "raw", "type": "frobnicate", "v": 1}))
        reply = P.decode_message(c._rfile.readline())
        assert reply["ok"] is False and "unknown request type 'frobnicate'" in reply["error"]["message"]
        with pytest.raises(P.ProtocolError, match='tune request needs "spec" with "proc" and "schedule" refs'):
            c.tune(spec={"proc": "repro.blas:LEVEL1_KERNELS"})
        c._sock.sendall(b"\n   \n")  # blank lines are skipped, not answered
        assert c.ping()["pong"] is True


def test_requests_are_logged_and_a_journal_that_cannot_grow_is_skipped(server, monkeypatch, caplog):
    import logging

    def full(_record):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(server.service.journal, "append", full)
    with caplog.at_level(logging.INFO, logger=server_module.log.name):
        with server.client() as c:
            assert c.ping()["pong"] is True
            assert c.ping()["pong"] is True
    assert any('"request": "ping"' in r.getMessage() for r in caplog.records)


def test_full_parse_and_warm_tables_start_over(server, monkeypatch):
    monkeypatch.setattr(server_module, "_PARSE_CACHE_LIMIT", 1)
    monkeypatch.setattr(server_module, "_WARM_LIMIT", 1)
    with server.client() as c:
        for k in (1, 2, 1):
            trace = dict(EMPTY, proc=f"f{k}")
            assert c.schedule(proc={"source": SRC.format(k=k)}, schedule={"trace": trace})["proc_name"] == f"f{k}"
        for interleave in (1, 2, 1):
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": interleave})
            c.schedule(proc=SAXPY, schedule=LEVEL1, knobs={"interleave": interleave})
    assert len(server.service._parse_cache) == 1 and len(server.service._warm) == 1


def test_a_tune_sweeps_a_named_space_or_the_defaults(server):
    spec = {"proc": "repro.blas:LEVEL1_KERNELS", "proc_args": ["saxpy"], "schedule": "repro.blas:level1_schedule",
            "size_env": {"n": 64}, "repeats": 1}
    with server.client(timeout_s=300) as c:
        out = c.tune(spec=spec, space={"ref": "repro.blas:level1_space"})
        assert sorted(m["config"]["interleave"] for m in out["measurements"]) == [1, 2, 4, 8]
        out = c.tune(spec=spec)
        assert [m["config"] for m in out["measurements"]] == [{"interleave": 2}]


def test_a_tune_of_an_unknown_procedure_has_no_warm_start(server):
    spec = {"proc": "repro.blas:NO_SUCH", "schedule": "repro.blas:level1_schedule", "size_env": {"n": 64}}
    with server.client(timeout_s=300) as c:
        with pytest.raises(P.RemoteServiceError, match="module 'repro.blas' has no attribute 'NO_SUCH'"):
            c.tune(spec=spec, configs=[{"interleave": 1}])
        assert c.ping()["pong"] is True


def test_a_leaderboard_that_cannot_be_saved_does_not_fail_the_tune(server, monkeypatch):
    def refuse(*_a, **_kw):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(server.service.leaderboard, "save", refuse)
    spec = {"proc": "repro.blas:LEVEL1_KERNELS", "proc_args": ["saxpy"], "schedule": "repro.blas:level1_schedule",
            "size_env": {"n": 64}, "repeats": 1}
    with server.client(timeout_s=300) as c:
        assert c.tune(spec=spec, configs=[{"interleave": 1}])["ok"] == 1


def _serve_in_thread(service):
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def main():
        await service.start()
        started.set()
        await service.serve_forever()

    thread = threading.Thread(target=lambda: loop.run_until_complete(main()), daemon=True)
    thread.start()
    assert started.wait(10)
    return thread


def test_a_service_without_a_state_directory_listens_on_tcp():
    service = ScheduleService(scheduling_workers=1, timing_workers=1)
    thread = _serve_in_thread(service)
    try:
        assert service.address().startswith("127.0.0.1:") and service.port > 0
        host, port = service.address().rsplit(":", 1)
        for address in (service.address(), (host, int(port))):
            with ServiceClient(address, timeout_s=10) as c:
                assert c.ping()["pong"] is True
        # a peer that resets the connection mid-line ends only its own loop
        rude = socket.create_connection((host, int(port)), timeout=10)
        rude.sendall(b'{"id": "r", "type": "ping"')
        rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        rude.close()
        with ServiceClient(service.address(), timeout_s=10) as c:
            assert c.ping()["pong"] is True
    finally:
        with ServiceClient(service.address(), timeout_s=10) as c:
            c.shutdown()
        thread.join(10)


def test_a_stale_socket_file_is_replaced_and_a_missing_one_is_not_an_error(tmp_path):
    path = tmp_path / "svc.sock"
    path.write_text("left behind by a dead server")
    service = ScheduleService(socket_path=str(path), scheduling_workers=1, timing_workers=1)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=lambda: loop.run_until_complete(service.serve_forever()), daemon=True)
    thread.start()  # serve_forever starts the service itself
    for _ in range(1000):
        if service._server is not None:
            break
        threading.Event().wait(0.01)
    with ServiceClient(str(path), timeout_s=10) as c:
        assert c.ping()["pong"] is True
        path.unlink()  # someone removed it: stopping must not fail on it
        c.shutdown()
    thread.join(10)
    assert not thread.is_alive()


def _peer(tmp_path, replies):
    """A Unix-socket peer that answers the first request line with ``replies``
    and then closes."""
    path = str(tmp_path / "peer.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def run():
        conn, _ = listener.accept()
        with conn:
            conn.makefile("rb").readline()
            conn.sendall(replies)
        listener.close()

    threading.Thread(target=run, daemon=True).start()
    return path


def test_the_client_skips_other_requests_frames_and_refuses_unknown_ones(tmp_path):
    stray = P.encode_message({"type": "response", "id": "elsewhere", "ok": True, "result": {}})
    odd = P.encode_message({"type": "gossip", "id": "c1"})
    with ServiceClient(_peer(tmp_path, stray + odd), timeout_s=10) as c:
        with pytest.raises(P.ProtocolError, match="unexpected frame type 'gossip'"):
            c.ping()


def test_the_client_reports_a_peer_that_hangs_up(tmp_path):
    with ServiceClient(_peer(tmp_path, b""), timeout_s=10) as c:
        with pytest.raises(ConnectionError, match="server closed the connection mid-request"):
            c.ping()


class _NeedsTwo(Exception):
    def __init__(self, a, b):
        super().__init__(a, b)


class _ReadOnly(Exception):
    primitive = property(lambda self: "fixed")


def test_decode_error_degrades_for_exceptions_it_cannot_rebuild(monkeypatch):
    monkeypatch.setitem(P.ERROR_REGISTRY, "_NeedsTwo", _NeedsTwo)
    monkeypatch.setitem(P.ERROR_REGISTRY, "KeyError", KeyError)
    got = P.decode_error({"kind": "_NeedsTwo", "message": "boom"})
    assert isinstance(got, P.RemoteServiceError) and "boom" in str(got)
    key = P.decode_error({"kind": "KeyError", "message": "k", "primitive": "divide_loop"})
    assert isinstance(key, KeyError) and key.primitive == "divide_loop"
    monkeypatch.setitem(P.ERROR_REGISTRY, "_ReadOnly", _ReadOnly)
    read_only = P.decode_error({"kind": "_ReadOnly", "message": "m", "primitive": "x"})
    assert isinstance(read_only, _ReadOnly) and read_only.primitive == "fixed"
