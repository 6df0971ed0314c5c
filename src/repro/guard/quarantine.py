"""First-run quarantine: execute untrusted native code in a forked child.

A freshly compiled kernel is machine code the host process has never run:
one miscompilation and the whole Python process — a tuner sweep, a service
worker — dies with SIGSEGV or spins forever.  :func:`run_guarded` runs a
callable in a *forked* child process under rlimits and a watchdog, so the
worst a bad kernel can do is kill its sandbox:

* the child gets ``RLIMIT_CORE = 0`` (a segfault must not shower the cache
  directory with core dumps) and, when a timeout is set, an ``RLIMIT_CPU``
  backstop for spins that ignore everything else;
* the parent waits on the report pipe — end-of-file is the child's exit,
  seen without a sleep — in slices of at most ``_WAIT_CAP_S``, asking
  ``waitpid`` between them (a process another thread forked meanwhile may
  hold the pipe open), against a wall-clock deadline, and SIGKILLs the child
  when it expires (catches sleeps, which consume no CPU time);
* a Python-level exception in the child is shipped back over a pipe and
  reported as ``status="error"`` — it is deterministic, not a crash, and
  must not poison the artifact.

Fork is the right isolation here because the kernel's ``.so`` is already
mapped in the parent: the child inherits the mapping and the argument
buffers copy-on-write, needing no pickling and no re-compilation.  The
child's writes are therefore *invisible* to the parent — a guarded run is a
validation run, and the caller re-executes in-process after a clean report.
On platforms without ``fork`` the guard degrades to an ungoverned in-process
call (reported honestly via ``GuardReport.forked``).

Fault hooks: ``kernel-segfault`` and ``kernel-hang`` (see
:mod:`repro.guard.faults`) fire *inside the child*, standing in for a
miscompiled kernel without ever endangering the host.
"""

from __future__ import annotations

import math
import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .. import config, obs
from . import faults

__all__ = [
    "GuardReport",
    "run_guarded",
]

_EXIT_ERROR = 17  # child died on a Python exception (message on the pipe)
_WAIT_CAP_S = 0.05  # longest the parent waits on the pipe before asking waitpid

# quarantined first runs and their outcomes: the ``guard.*`` counters
obs.declare("guard.guarded_runs", "guard.ok", "guard.crash", "guard.timeout", "guard.error")


def _count(outcome: str) -> None:
    obs.add("guard." + outcome)


@dataclass(frozen=True)
class GuardReport:
    """The outcome of one quarantined run.

    ``status`` is ``"ok"`` (clean exit — the artifact may be trusted),
    ``"crash"`` (died on a signal: SIGSEGV/SIGFPE/SIGBUS/...), ``"timeout"``
    (the watchdog killed it), or ``"error"`` (a Python exception, carried in
    ``error``).  ``forked`` is False only on platforms without ``fork``,
    where no isolation was possible.
    """

    status: str
    signal: Optional[int] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    forked: bool = True


def _child(fn: Callable[[], None], write_fd: int, timeout_s: Optional[float]) -> "NoReturn":  # noqa: F821
    """Runs in the forked child; never returns."""
    try:
        try:
            # the child dying violently is the *expected* failure mode here:
            # suppress faulthandler's crash traceback, which would otherwise
            # spew into the parent's stderr on every quarantine kill
            import faulthandler

            faulthandler.disable()
        except Exception:
            pass
        try:
            import resource

            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
            if timeout_s is not None:
                cpu = max(1, int(math.ceil(timeout_s)) + 1)
                resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        except Exception:
            pass  # rlimits are best-effort hardening, not correctness
        if faults.should_fire("kernel-segfault"):
            os.kill(os.getpid(), signal.SIGSEGV)
        if faults.should_fire("kernel-hang"):
            while True:
                time.sleep(3600)
        fn()
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        try:
            msg = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")[:4096]
            os.write(write_fd, msg)
        except OSError:
            pass
        os._exit(_EXIT_ERROR)
    os._exit(0)


def run_guarded(fn: Callable[[], None], timeout_s: Optional[float] = None) -> GuardReport:
    """Run ``fn`` in a forked, rlimited, watchdogged child process.

    The child's memory writes are copy-on-write and discarded: treat a clean
    report as *permission* to run ``fn`` in-process, not as having run it.
    """
    if timeout_s is None:
        timeout_s = config.guard_timeout_s()
    _count("guarded_runs")
    if not hasattr(os, "fork"):
        # no isolation possible; run in-process and say so
        t0 = time.perf_counter()
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001
            _count("error")
            return GuardReport(
                "error", error=f"{type(exc).__name__}: {exc}",
                elapsed_s=time.perf_counter() - t0, forked=False,
            )
        _count("ok")
        return GuardReport("ok", elapsed_s=time.perf_counter() - t0, forked=False)

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(fn, write_fd, timeout_s)  # never returns

    os.close(write_fd)
    deadline = t0 + timeout_s
    timed_out = False
    chunks = []
    try:
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([read_fd], [], [], min(max(remaining, 0.0), _WAIT_CAP_S))
            if ready:
                chunk = os.read(read_fd, 4096)
                if chunk:
                    chunks.append(chunk)
                    continue
                _, status = os.waitpid(pid, 0)  # end-of-file: the child is gone
                break
            # a process forked by another thread can hold the write end open
            # past the child's exit, so between waits the child is asked itself
            exited, status = os.waitpid(pid, os.WNOHANG)
            if exited:
                if select.select([read_fd], [], [], 0)[0]:
                    chunks.append(os.read(read_fd, 4096))  # the child writes once
                break
            if remaining <= 0:
                timed_out = True
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _, status = os.waitpid(pid, 0)
                break
    finally:
        os.close(read_fd)
    elapsed = time.perf_counter() - t0
    message = b"".join(chunks).decode("utf-8", "replace")

    if timed_out:
        _count("timeout")
        return GuardReport("timeout", elapsed_s=elapsed,
                           error=f"watchdog timeout after {timeout_s:g}s")
    if os.WIFSIGNALED(status):
        _count("crash")
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = f"signal {sig}"
        return GuardReport("crash", signal=sig, elapsed_s=elapsed,
                           error=f"killed by {name}")
    code = os.WEXITSTATUS(status)
    if code == 0:
        _count("ok")
        return GuardReport("ok", elapsed_s=elapsed)
    if code == _EXIT_ERROR:
        _count("error")
        return GuardReport("error", error=message or "exception in guarded child",
                           elapsed_s=elapsed)
    # an unexplained nonzero exit is as untrustworthy as a signal death
    _count("crash")
    return GuardReport("crash", elapsed_s=elapsed,
                       error=f"guarded child exited with status {code}")
