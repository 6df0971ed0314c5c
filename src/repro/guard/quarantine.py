"""Quarantine: run work that may die in a disposable, forked child.

A freshly compiled kernel is machine code the host process has never run:
one miscompilation and the whole Python process — a tuner sweep, a service
worker — dies with SIGSEGV or spins forever.  :func:`run_guarded` runs a
callable in a *forked* child process under rlimits and a watchdog, so the
worst the work can do is kill its sandbox.  It is the one place the stack
forks: :func:`repro.backend.native.call_guarded` validates a kernel's first
run here, and :func:`repro.tune.runner.evaluate_isolated` measures a tuning
candidate here.

* the child gets ``RLIMIT_CORE = 0`` (a segfault must not shower the cache
  directory with core dumps), an ``RLIMIT_CPU`` backstop for spins that
  ignore everything else when the limit is finite, and ``PR_SET_PDEATHSIG``
  = SIGKILL, so a guard nested in a guard dies with the child that opened it;
* the parent drains the report pipe — end-of-file is the child's exit, seen
  without a sleep — in slices of at most ``_WAIT_CAP_S``, asking ``waitpid``
  between them (a process another thread forked meanwhile may hold the pipe
  open), against a wall-clock deadline, and SIGKILLs the child when it
  expires (catches sleeps and native calls, which no Python handler stops);
* a clean child sends ``fn()``'s value as JSON (``GuardReport.value``);
* a Python-level exception in the child is shipped back over the pipe and
  reported as ``status="error"`` — it is deterministic, not a crash, and
  must not poison the artifact.

Fork is the right isolation here because the kernel's ``.so`` is already
mapped in the parent: the child inherits the mapping and the argument
buffers copy-on-write, needing no pickling and no re-compilation.  The
child's writes are therefore *invisible* to the parent — a guarded kernel
run is a validation run, and the caller re-executes in-process after a
clean report.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .. import config, obs

__all__ = [
    "GuardReport",
    "run_guarded",
]

_EXIT_ERROR = 17  # child died on a Python exception (message on the pipe)
_WAIT_CAP_S = 0.05  # longest the parent waits on the pipe before asking waitpid
_PR_SET_PDEATHSIG = 1

# resolved once: looking libc up in every child costs each guarded run time
try:
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):  # not glibc-like: no death signal
    _prctl = None

# guarded runs (kernel first runs, isolated candidates): the ``guard.*`` counters
obs.declare("guard.guarded_runs", "guard.ok", "guard.crash", "guard.timeout", "guard.error")


def _count(outcome: str) -> None:
    obs.add("guard." + outcome)


@dataclass(frozen=True)
class GuardReport:
    """The outcome of one quarantined run.

    ``status`` is ``"ok"`` (clean exit — ``value`` is what ``fn`` returned,
    through JSON), ``"crash"`` (died on a signal: SIGSEGV/SIGFPE/SIGBUS/...,
    or an unexplained exit), ``"timeout"`` (the watchdog killed it), or
    ``"error"`` (a Python exception, carried in ``error``).
    """

    status: str
    signal: Optional[int] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    value: Any = None


def _child(fn: Callable[[], Any], write_fd: int, timeout_s: float, parent: int) -> "NoReturn":  # noqa: F821
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

            if _prctl is not None:
                _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
                if os.getppid() != parent:  # the parent died before the call
                    os._exit(0)
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
            if math.isfinite(timeout_s):
                cpu = max(1, int(math.ceil(timeout_s)) + 1)
                resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        except Exception:
            pass  # rlimits and the death signal are best-effort hardening
        report, code = json.dumps(fn()).encode(), 0
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        report, code = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")[:4096], _EXIT_ERROR
    try:
        view = memoryview(report)
        while view:
            view = view[os.write(write_fd, view):]
    except OSError:
        pass
    os._exit(code)


def run_guarded(fn: Callable[[], Any], timeout_s: Optional[float] = None) -> GuardReport:
    """Run ``fn`` in a forked, rlimited, watchdogged child process.

    ``timeout_s`` defaults to ``REPRO_GUARD_TIMEOUT``; ``math.inf`` sets no
    limit.  The child's memory writes are copy-on-write and discarded: what
    crosses back is ``fn``'s JSON-able return value, nothing else.
    """
    if timeout_s is None:
        timeout_s = config.guard_timeout_s()
    _count("guarded_runs")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(fn, write_fd, timeout_s, parent)  # never returns

    os.close(write_fd)
    deadline = t0 + timeout_s
    timed_out = False
    chunks = []
    try:
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([read_fd], [], [], min(max(remaining, 0.0), _WAIT_CAP_S))
            if ready:
                chunk = os.read(read_fd, 65536)
                if chunk:
                    chunks.append(chunk)
                    continue
                _, status = os.waitpid(pid, 0)  # end-of-file: the child is gone
                break
            # a process forked by another thread can hold the write end open
            # past the child's exit, so between waits the child is asked itself
            exited, status = os.waitpid(pid, os.WNOHANG)
            if exited:
                while select.select([read_fd], [], [], 0)[0]:
                    chunk = os.read(read_fd, 65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
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
    message = b"".join(chunks)

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
    if code == 0 and message:
        _count("ok")
        return GuardReport("ok", elapsed_s=elapsed, value=json.loads(message))
    if code == _EXIT_ERROR:
        _count("error")
        return GuardReport("error", error=message.decode("utf-8", "replace") or "exception in guarded child",
                           elapsed_s=elapsed)
    # an unexplained exit is as untrustworthy as a signal death
    _count("crash")
    return GuardReport("crash", elapsed_s=elapsed,
                       error=f"guarded child exited with status {code} and no report")
