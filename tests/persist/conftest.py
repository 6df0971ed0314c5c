"""Shared fixtures for the persistence-layer (repro.persist) suite.

These tests are part of the chaos matrix, but with a stricter discipline
than ``tests/guard``: nearly every persist test performs in-process
``write_record``/``Journal.append``/``FileLock.acquire`` calls, so an
environment-armed fault hits *the pytest process itself* — ``partial-write``
tears the fixtures a test is about to read back, and ``kill-mid-publish``
SIGKILLs the test runner outright.  The autouse guard below therefore skips
every test under any armed env fault unless the test declares it with
``@pytest.mark.chaos_tolerates("<fault>", ...)`` — the declaration means
"my assertions are exactly about that degradation, fire away".

Coverage of ``kill-mid-publish`` does not depend on env arming at all: the
kill-harness and resume tests fork a victim process and arm the fault via
``inject()`` *inside the child*, so only the victim dies.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.guard import faults

#: fork start method: children inherit injected fault state and closures —
#: exactly what the kill harness needs (and the only method that lets a
#: Process target be a test-local function)
mp_fork = multiprocessing.get_context("fork")


@pytest.fixture(autouse=True)
def _chaos_guard(request):
    """Skip under any env-armed fault the test does not explicitly tolerate."""
    armed = set(faults.env_faults())
    marker = request.node.get_closest_marker("chaos_tolerates")
    tolerated = set(marker.args) if marker else set()
    extra = sorted(armed - tolerated)
    if extra:
        pytest.skip(
            f"armed env fault(s) {', '.join(extra)} would fire inside the "
            "pytest process; this test does not tolerate them"
        )


@pytest.fixture
def run_victim():
    """``run_victim(fn, *args)`` — fork ``fn`` as a child process, wait for
    it, and return its exit code (negative = killed by that signal).  The
    child runs the test-local function with inherited state; a victim that
    arms ``kill-mid-publish`` dies with ``-SIGKILL`` (-9)."""

    def run(fn, *args, timeout_s: float = 60.0):
        p = mp_fork.Process(target=fn, args=args)
        p.start()
        p.join(timeout_s)
        if p.is_alive():  # pragma: no cover - hang safety net
            p.kill()
            p.join()
            pytest.fail(f"victim {fn.__name__} hung past {timeout_s}s")
        return p.exitcode

    return run


@pytest.fixture
def repo_python_env():
    """Environment for spawning real worker subprocesses: ``src`` on
    PYTHONPATH, no inherited fault arming."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    return env
