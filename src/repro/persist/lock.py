"""Advisory inter-process locks for the persistent stores.

:class:`FileLock` wraps ``fcntl.flock`` on a dedicated ``<path>.lock`` file:
kernel-mediated, released automatically when the holding process dies (so a
``kill -9``'d tuner never wedges every future tune the way a pidfile would),
and advisory — every writer must take it, readers need not (records publish
atomically, so an unlocked read sees a consistent old-or-new state).

Acquisition is *bounded*: a holder that wedges (or a fault injection that
pretends one did) makes :meth:`FileLock.acquire` raise :class:`LockTimeout`
after ``timeout_s`` rather than hanging the caller forever.  Callers treat
that as a degradation signal — the leaderboard, for example, falls back to
in-memory operation and emits a ``lock-contention``
:class:`~repro.guard.events.FallbackEvent` instead of blocking a tune run on
a sick filesystem.

Fault site: ``lock-timeout`` (:mod:`repro.guard.faults`) makes acquisition
time out immediately, exercising every caller's contention path without
needing a real stuck process.
"""

from __future__ import annotations

import fcntl
import os
import time
from typing import Optional

from ..guard import faults
from .store import PersistError

__all__ = ["FileLock", "LockTimeout"]

_POLL_S = 0.02  # how often a waiter retries a held lock


class LockTimeout(PersistError):
    """The lock stayed held past the acquisition deadline."""


class FileLock:
    """A bounded-wait, process-scoped advisory file lock.

    Usable as a context manager::

        with FileLock(board_path + ".lock", timeout_s=5.0):
            ...read-merge-write...

    The lock file itself is never deleted by the holder — deleting it races
    with a waiter that already opened it (the classic unlink/flock hazard);
    an idle leftover lock file is harmless and ``tools/repro_fsck.py`` can
    sweep it.
    """

    def __init__(self, path: str, timeout_s: float = 10.0):
        if timeout_s <= 0:
            raise PersistError(f"FileLock: timeout_s must be positive, got {timeout_s!r}")
        self.path = path
        self.timeout_s = timeout_s
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "FileLock":
        if self._fd is not None:
            raise PersistError(f"FileLock {self.path!r} is not reentrant")
        if faults.should_fire("lock-timeout"):
            raise LockTimeout(
                f"could not acquire {self.path!r} within {self.timeout_s:g}s "
                "(fault: lock-timeout)"
            )
        dirpath = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(dirpath, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise LockTimeout(
                        f"could not acquire {self.path!r} within {self.timeout_s:g}s "
                        "(another process holds it)"
                    ) from None
                time.sleep(_POLL_S)

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "held" if self.held else "free"
        return f"<FileLock {self.path} ({state})>"
