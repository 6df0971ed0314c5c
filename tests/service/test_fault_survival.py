"""The service under fire: a subprocess server with an armed
``kernel-segfault`` fault must survive native-backed tune measurements (the
guarded first run dies, the degradation ladder answers) and keep serving."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import native
from repro.service import ServiceClient

REPO = Path(__file__).resolve().parents[2]

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


def _start_server(state_dir: str, *, faults: str = "") -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONUNBUFFERED="1",
    )
    if faults:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--state-dir", state_dir, "--quiet"],
        env=env,
        cwd=str(REPO),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()  # "repro-service listening on <addr>"
    assert "listening on" in line, line
    return proc


@needs_cc
def test_injected_segfault_degrades_the_measurement_not_the_server(tmp_path):
    state = str(tmp_path / "state")
    proc = _start_server(state, faults="kernel-segfault")
    try:
        sock = os.path.join(state, "service.sock")
        with ServiceClient(sock, timeout_s=300) as c:
            out = c.tune(
                spec={
                    "proc": "repro.blas:LEVEL1_KERNELS",
                    "proc_args": ["saxpy"],
                    "schedule": "repro.blas:level1_schedule",
                    "size_env": {"n": 256},
                    "repeats": 1,
                    "backend": "c",
                },
                configs=[{"interleave": 1}],
            )
            # the native first run segfaulted in its quarantine; the ladder
            # degraded the measurement to a working engine — it still succeeds
            assert out["ok"] == 1 and out["failed"] == 0

            # and the server is alive and accounting afterwards
            stats = c.stats()
            assert stats["requests"]["tune"] == 1
            assert stats["errors"] == 0
            c.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_subprocess_server_round_trips_schedules(tmp_path):
    state = str(tmp_path / "state")
    proc = _start_server(state)
    try:
        sock = os.path.join(state, "service.sock")
        with ServiceClient(sock, timeout_s=120) as c:
            a = c.schedule(
                proc={"ref": "repro.blas:LEVEL1_KERNELS", "args": ["saxpy"]},
                schedule={"ref": "repro.blas:level1_schedule"},
                knobs={"interleave": 2},
            )
            b = c.schedule(
                proc={"ref": "repro.blas:LEVEL1_KERNELS", "args": ["saxpy"]},
                schedule={"ref": "repro.blas:level1_schedule"},
                knobs={"interleave": 2},
            )
            assert a["cache"] == "miss" and b["cache"] == "hit"
            assert a["state_hash"] == b["state_hash"]
            c.shutdown()
        assert proc.wait(timeout=30) == 0
        # clean exit removed the socket; the journal remains for fsck
        assert not os.path.exists(sock)
        assert os.path.exists(os.path.join(state, "requests.jsonl"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # killed-over state (socket without listener) is what fsck repairs;
    # simulate it and let the doctor confirm
    stale = tmp_path / "stale"
    stale.mkdir()
    import socket as _socket

    s = _socket.socket(_socket.AF_UNIX)
    s.bind(str(stale / "service.sock"))
    s.close()
    fsck = subprocess.run(
        [sys.executable, str(REPO / "tools" / "repro_fsck.py"), str(stale)],
        capture_output=True,
        text=True,
    )
    assert fsck.returncode == 1 and "STALE SOCKET" in fsck.stdout
    subprocess.run(
        [sys.executable, str(REPO / "tools" / "repro_fsck.py"), "--repair", str(stale)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert not os.path.exists(stale / "service.sock")
