"""``python -m repro.service``'s entry point, driven in-process: the flags
reach the service, the address is printed before serving, and an interrupt
ends the process with status 0.  The real subprocess runs in
``test_fault_survival.py``; here the service class is a stand-in, so nothing
listens."""
from __future__ import annotations

import runpy
import sys

import pytest

import repro.service.server as server


class _Service:
    made = []

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        _Service.made.append(self)

    async def start(self):
        self.started = True

    def address(self):
        return "unix:/nowhere"

    async def serve_forever(self):
        raise KeyboardInterrupt  # what Ctrl-C does to asyncio.run


@pytest.fixture
def fake(monkeypatch):
    _Service.made.clear()
    monkeypatch.setattr(server, "ScheduleService", _Service)
    monkeypatch.setattr(sys, "setswitchinterval", lambda _s: None)  # keep this process's own
    monkeypatch.setattr("logging.basicConfig", lambda **_kw: None)
    return _Service.made


def test_the_entry_point_serves_until_interrupted(fake, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["repro.service", "--socket", "/tmp/x.sock", "--timing-workers", "3", "--quiet"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("repro.service", run_name="__main__")
    assert done.value.code == 0
    (svc,) = fake
    assert svc.started and svc.kwargs == {
        "socket_path": "/tmp/x.sock", "host": None, "port": 0, "state_dir": None,
        "scheduling_workers": 4, "timing_workers": 3,
    }
    assert capsys.readouterr().out == "repro-service listening on unix:/nowhere\n"


def test_the_entry_point_refuses_an_unknown_flag(fake, capsys):
    from repro.service.__main__ import main

    with pytest.raises(SystemExit) as done:
        main(["--bogus"])
    assert done.value.code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert fake == []
