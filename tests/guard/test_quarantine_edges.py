"""The quarantine guard when its child is unusual: killed by a signal with no
name, or exiting while a grandchild still holds the report pipe open."""
from __future__ import annotations

import os
import time

from repro.guard.quarantine import run_guarded


def test_a_child_killed_by_an_unnamed_signal_is_a_crash():
    sig = 40  # a real-time signal: Python's Signals enum has no member for it
    report = run_guarded(lambda: os.kill(os.getpid(), sig), timeout_s=30)
    assert report.status == "crash" and report.signal == sig and report.error == f"killed by signal {sig}"


def test_a_report_is_read_although_a_grandchild_holds_the_pipe():
    def fn():
        if os.fork() == 0:  # the grandchild keeps the write end open a while
            time.sleep(1.5)
            os._exit(0)
        return 7

    report = run_guarded(fn, timeout_s=30)
    assert report.status == "ok" and report.value == 7
