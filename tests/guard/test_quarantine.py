"""First-run quarantine: crashes and hangs in native kernels must never take
down or wedge the host process (repro.guard.quarantine + repro.backend.native).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.guard import GuardReport, inject, run_guarded
from repro.interp import make_random_args, run_proc

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")


# ---------------------------------------------------------------------------
# run_guarded in isolation
# ---------------------------------------------------------------------------


@needs_fork
def test_clean_run_reports_ok_and_discards_child_writes(tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "worker-crash", "publish-race")
    buf = np.zeros(4)

    def kernel():
        buf[:] = 1.0  # copy-on-write: must stay invisible to the parent

    report = run_guarded(kernel, timeout_s=10)
    assert report.status == "ok" and report.forked
    assert np.all(buf == 0.0)
    assert obs.count("guard.ok") == 1


@needs_fork
def test_segfaulting_child_is_reported_not_fatal(tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "worker-crash",
              "publish-race", "kernel-segfault")

    def kernel():
        os.kill(os.getpid(), signal.SIGSEGV)

    report = run_guarded(kernel, timeout_s=10)
    assert report.status == "crash"
    assert report.signal == signal.SIGSEGV
    assert "SIGSEGV" in report.error
    assert obs.count("guard.crash") == 1


@needs_fork
def test_hanging_child_is_killed_by_the_watchdog(tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "worker-crash",
              "publish-race", "kernel-hang")
    t0 = time.perf_counter()
    report = run_guarded(lambda: time.sleep(3600), timeout_s=0.3)
    elapsed = time.perf_counter() - t0
    assert report.status == "timeout"
    assert elapsed < 5.0  # killed promptly, nowhere near the hour
    assert obs.count("guard.timeout") == 1


@needs_fork
def test_python_exception_in_child_is_an_error_not_a_crash(tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "worker-crash", "publish-race")

    def kernel():
        raise ValueError("deterministic bug")

    report = run_guarded(kernel, timeout_s=10)
    assert report.status == "error"
    assert "ValueError" in report.error and "deterministic bug" in report.error


@needs_fork
def test_a_stray_holder_of_the_report_pipe_does_not_stall_a_clean_run(tolerates):
    """The parent waits for end-of-file on the report pipe, and a process
    forked elsewhere meanwhile inherits its write end: the child's own exit
    must still be seen at once, not at the watchdog deadline."""
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "worker-crash", "publish-race")

    def kernel():
        if os.fork() == 0:  # outlives the guarded child, holding the pipe open
            time.sleep(1.5)
            os._exit(0)

    t0 = time.perf_counter()
    report = run_guarded(kernel, timeout_s=10)
    assert report.status == "ok"
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# acceptance: a hostile native kernel, driven through the public run_proc
# ---------------------------------------------------------------------------


def _axpy_args(axpy, seed=0):
    args = make_random_args(axpy, {"n": 96}, seed=seed)
    expect = args["y"] + args["a"] * args["x"]
    return args, expect


@needs_cc
@needs_fork
def test_segfaulting_kernel_degrades_poisons_and_stays_correct(cache, axpy, tolerates):
    tolerates()
    with inject("kernel-segfault", times=1):
        args, expect = _axpy_args(axpy, seed=1)
        run_proc(axpy, backend="c", **args)  # the host survives this line
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)

    assert obs.count("guard.crash") == 1
    (ev,) = [e for e in obs.events() if e.reason == "kernel-segfault"]
    assert ev.stage == "c->compiled" and ev.artifact_key

    # the artifact is poisoned on disk: the next call must not re-enter the
    # guard (or even dlopen the artifact) — it degrades immediately
    assert native.artifact_status(ev.artifact_key) == "poisoned"
    args2, expect2 = _axpy_args(axpy, seed=2)
    run_proc(axpy, backend="c", **args2)
    np.testing.assert_allclose(args2["y"], expect2, rtol=1e-4, atol=1e-5)
    assert obs.count("guard.guarded_runs") == 1  # no guard re-entry
    assert obs.count("fallback.poisoned-artifact") == 1


@needs_cc
@needs_fork
def test_hanging_kernel_degrades_poisons_and_stays_correct(cache, axpy, fast_guard, tolerates):
    tolerates()
    t0 = time.perf_counter()
    with inject("kernel-hang", times=1):
        args, expect = _axpy_args(axpy, seed=3)
        run_proc(axpy, backend="c", **args)  # the host does not wedge here
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)

    assert obs.count("guard.timeout") == 1
    (ev,) = [e for e in obs.events() if e.reason == "kernel-hang"]
    assert native.artifact_status(ev.artifact_key) == "poisoned"

    # poisoned: later calls skip the guard and degrade immediately
    args2, expect2 = _axpy_args(axpy, seed=4)
    run_proc(axpy, backend="c", **args2)
    np.testing.assert_allclose(args2["y"], expect2, rtol=1e-4, atol=1e-5)
    assert obs.count("guard.guarded_runs") == 1


@needs_cc
@needs_fork
def test_clean_first_run_validates_and_skips_the_guard_afterwards(cache, axpy, tolerates):
    tolerates()
    args, expect = _axpy_args(axpy, seed=5)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("guard.") == {
        "guarded_runs": 1, "ok": 1, "crash": 0, "timeout": 0, "error": 0,
    }
    key = native.artifact_key(axpy._root if hasattr(axpy, "_root") else axpy)
    assert native.artifact_status(key) == "validated"

    # warm calls go straight in-process: no new guarded runs, no fallbacks
    for seed in (6, 7):
        argsN, expectN = _axpy_args(axpy, seed=seed)
        run_proc(axpy, backend="c", **argsN)
        np.testing.assert_allclose(argsN["y"], expectN, rtol=1e-4, atol=1e-5)
    assert obs.count("guard.guarded_runs") == 1
    assert obs.counters("fallback.") == {}


@needs_cc
def test_guard_can_be_disabled(cache, axpy, monkeypatch, tolerates):
    tolerates()
    monkeypatch.setenv("REPRO_GUARD", "off")
    args, expect = _axpy_args(axpy, seed=8)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.count("guard.guarded_runs") == 0
