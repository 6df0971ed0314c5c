"""Append-only, per-line-checksummed JSON journals.

The resumable-tuning checkpoint (:class:`repro.tune.Tuner`) needs a
different durability shape than the record store: measurements arrive one at
a time over a long run, and a crash must lose *at most the measurement being
written*, never the history.  An append-only journal gives exactly that:
each completed entry is one line of compact JSON followed by a ``#<sha256
prefix>`` of the line body, appended with ``O_APPEND`` and ``fsync``'d.
The descriptor is held between appends (the schedule service journals every
request; a ``makedirs`` + ``open`` + ``close`` per line was most of an
append) and reopened whenever ``path`` stops naming the file it is open on.

Reading tolerates precisely the damage a crash can cause: a torn *final*
line (the writer died mid-append — the ``partial-write`` and
``kill-mid-publish`` fault sites simulate both halves of that) fails its
checksum and is skipped, counted in :attr:`Journal.torn`.  A corrupt line in
the *middle* of the file is not crash damage; it is still skipped (and
counted) so one flipped bit never discards a night of measurements, but
``tools/repro_fsck.py`` reports it.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from typing import List, Optional, Tuple

from ..guard import faults

__all__ = ["Journal"]

_SEP = " #"
_DIGEST_LEN = 16


def _line_digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()[:_DIGEST_LEN]


class Journal:
    """A crash-safe append-only log of JSON records at ``path``.

    ``append`` is durable per entry; ``entries`` returns every intact record
    in order, silently dropping torn/corrupt lines (tallied in ``torn``).
    """

    def __init__(self, path: str, *, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self.torn = 0
        # the O_APPEND descriptor held between appends, and the (device,
        # inode) it was opened on; guarded by _lock (the reopen is not atomic)
        self._fd: Optional[int] = None
        self._ident: Optional[Tuple[int, int]] = None
        self._lock = threading.Lock()

    def _descriptor(self) -> int:
        """The descriptor to append through: the held one while ``path``
        still names the file it was opened on, else a fresh one — so a line
        written after the journal was unlinked, rotated or quarantined lands
        in a file at ``path``, never in the orphaned inode."""
        if self._fd is not None:
            try:
                st = os.stat(self.path)
                if (st.st_dev, st.st_ino) == self._ident:
                    return self._fd
            except OSError:
                pass
            self._close()
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        st = os.fstat(self._fd)
        self._ident = (st.st_dev, st.st_ino)
        return self._fd

    def _close(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)

    def close(self) -> None:
        """Release the held descriptor (a later ``append`` reopens it)."""
        with self._lock:
            self._close()

    __del__ = close

    def append(self, record: dict) -> None:
        body = json.dumps(record, separators=(",", ":"), sort_keys=True, default=repr)
        data = f"{body}{_SEP}{_line_digest(body)}\n".encode()
        if faults.should_fire("partial-write"):
            data = data[: max(1, len(data) // 2)]  # the torn tail a crash leaves
        with self._lock:
            fd = self._descriptor()
            os.write(fd, data)
            if faults.should_fire("kill-mid-publish"):
                os.kill(os.getpid(), signal.SIGKILL)
            if self.fsync:
                os.fsync(fd)

    def entries(self) -> List[dict]:
        self.torn = 0
        out: List[dict] = []
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except OSError:
            return out
        for line in raw.decode("utf-8", errors="replace").splitlines():
            if not line.strip():
                continue
            body, sep, digest = line.rpartition(_SEP)
            if not sep or _line_digest(body) != digest.strip():
                self.torn += 1
                continue
            try:
                out.append(json.loads(body))
            except json.JSONDecodeError:
                self.torn += 1
        return out

    def __repr__(self) -> str:
        return f"<Journal {self.path}>"
