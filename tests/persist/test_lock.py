"""The advisory inter-process lock: real cross-process exclusion, bounded
timeouts, crash release, and the lock-timeout fault."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.guard import faults
from repro.guard.faults import inject
from repro.persist import FileLock, LockTimeout
from repro.persist.store import PersistError

mp_fork = multiprocessing.get_context("fork")


def _hold(path, hold_s, barrier):
    with FileLock(path, timeout_s=5.0):
        barrier.set()  # tell the parent the lock is truly held
        time.sleep(hold_s)


def test_cross_process_exclusion_times_out_then_succeeds(tmp_path):
    path = str(tmp_path / "board.json.lock")
    acquired = mp_fork.Event()
    holder = mp_fork.Process(target=_hold, args=(path, 1.0, acquired))
    holder.start()
    try:
        assert acquired.wait(5.0)
        # bounded: a held lock fails fast, it does not hang the caller
        t0 = time.monotonic()
        with pytest.raises(LockTimeout, match="another process holds it"):
            FileLock(path, timeout_s=0.15).acquire()
        assert time.monotonic() - t0 < 1.0
        # and once the holder releases, a patient waiter gets in
        with FileLock(path, timeout_s=5.0):
            pass
    finally:
        holder.join()
    assert holder.exitcode == 0


def _hold_forever(path, barrier):
    FileLock(path, timeout_s=5.0).acquire()
    barrier.set()
    time.sleep(60)  # never released voluntarily; the parent SIGKILLs us


def test_sigkilled_holder_releases_the_lock(tmp_path):
    """The reason this is flock and not a pidfile: the kernel drops the lock
    with the process, so a ``kill -9``'d tuner never wedges future tunes."""
    path = str(tmp_path / "board.json.lock")
    acquired = mp_fork.Event()
    holder = mp_fork.Process(target=_hold_forever, args=(path, acquired))
    holder.start()
    try:
        assert acquired.wait(5.0)
        os.kill(holder.pid, 9)
        holder.join(5.0)
        with FileLock(path, timeout_s=2.0):
            pass  # acquirable promptly after the holder died
    finally:
        if holder.is_alive():  # pragma: no cover
            holder.kill()
            holder.join()


def test_context_manager_releases_and_is_reacquirable(tmp_path):
    path = str(tmp_path / "x.lock")
    lock = FileLock(path, timeout_s=1.0)
    with lock:
        assert lock.held
    assert not lock.held
    with lock:  # same object, second acquisition
        assert lock.held


def test_not_reentrant(tmp_path):
    lock = FileLock(str(tmp_path / "x.lock"), timeout_s=1.0)
    with lock:
        with pytest.raises(PersistError, match="not reentrant"):
            lock.acquire()


def test_holder_never_unlinks_the_lock_file(tmp_path):
    # deleting the lock file races with a waiter that already opened it —
    # the holder must leave it in place (fsck sweeps idle leftovers)
    path = str(tmp_path / "x.lock")
    with FileLock(path, timeout_s=1.0):
        assert os.path.exists(path)
    assert os.path.exists(path)


def test_nonpositive_timeout_is_rejected(tmp_path):
    with pytest.raises(PersistError, match="timeout_s"):
        FileLock(str(tmp_path / "x.lock"), timeout_s=0)


@pytest.mark.chaos_tolerates("lock-timeout")
def test_lock_timeout_fault_fires_immediately(tmp_path):
    path = str(tmp_path / "x.lock")
    t0 = time.monotonic()
    with inject("lock-timeout", times=1):
        with pytest.raises(LockTimeout, match="fault: lock-timeout"):
            FileLock(path, timeout_s=30.0).acquire()
    assert time.monotonic() - t0 < 1.0  # no real waiting happened
    if "lock-timeout" not in faults.env_faults():
        with FileLock(path, timeout_s=1.0):  # fault consumed; lock is healthy
            pass
