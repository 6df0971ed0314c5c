"""Checksummed, atomic, crash-consistent JSON records.

Every persistent store in the repo (tuner leaderboard, replay-cache traces,
native-artifact trust sidecars, tune checkpoints) writes through this module
so they all share one crash-consistency discipline:

* **atomic publish** — records are staged in a ``tempfile.mkstemp`` file *in
  the destination directory* (same filesystem, and — unlike a fixed
  ``<path>.tmp`` sibling — concurrent writers can never collide on the
  staging name), flushed, ``fsync``'d, and published with ``os.replace``.
  The parent directory is ``fsync``'d after the rename so the publish itself
  survives a power cut.  Readers therefore only ever observe the old record
  or the new one, never a partially written hybrid *at the published path*.
* **torn-write detection** — the record carries a ``#sha256:`` trailer line
  over its JSON body.  :func:`read_record` verifies it and raises
  :class:`CorruptRecordError` on any mismatch, truncation, or garbage, so a
  store that *does* find torn bytes (a dying disk, a crashed writer on a
  filesystem that reordered the rename) detects them instead of decoding
  nonsense.  A file without the trailer is not a record: a write torn
  exactly at the trailer line must not load unverified.
* **quarantine** — :func:`quarantine_file` moves a detected-corrupt file to
  ``<path>.corrupt-<digest>`` (content-addressed, so re-detecting the same
  corruption collapses to one evidence file) instead of deleting it.

Fault sites (:mod:`repro.guard.faults`): ``partial-write`` truncates the
staged bytes before publish — the published record is torn exactly as a
mid-write power loss would leave it, which is how the detection path is
exercised; ``kill-mid-publish`` SIGKILLs the writing process between staging
and ``os.replace`` — the harness in ``tests/persist`` forks a victim, lets
the fault kill it, and proves the store reloads to the *old* state.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import signal
import tempfile
from typing import Optional

from ..errors import ExoError
from ..guard import faults

__all__ = [
    "PersistError",
    "CorruptRecordError",
    "write_record",
    "read_record",
    "write_text_atomic",
    "quarantine_file",
    "machine_id",
    "TRAILER_PREFIX",
]

TRAILER_PREFIX = "#sha256:"


class PersistError(ExoError):
    """Base class of persistence-layer failures."""


class CorruptRecordError(PersistError):
    """A record failed its checksum or could not be decoded — a torn write,
    bit rot, or a foreign file.  Callers quarantine and start fresh."""

    def __init__(self, message: str, path: Optional[str] = None):
        super().__init__(message)
        self.path = path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fsync_dir(dirpath: str) -> None:
    """Flush a directory entry (the rename itself) to stable storage; best
    effort — some filesystems refuse O_RDONLY directory fsync."""
    try:
        fd = os.open(dirpath, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _publish(tmp: str, path: str, dirpath: str, fsync: bool) -> None:
    """Atomically move staged bytes into place (the kill-mid-publish fault
    site: a SIGKILL here must leave the old record intact)."""
    if faults.should_fire("kill-mid-publish"):
        os.kill(os.getpid(), signal.SIGKILL)
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(dirpath)


def write_record(path: str, payload: object, *, fsync: bool = True) -> None:
    """Publish ``payload`` as a checksummed JSON record at ``path``.

    Crash-consistent: stage in a ``mkstemp`` temp in the destination
    directory, fsync, ``os.replace``, fsync the directory.  ``fsync=False``
    skips both syncs (caches whose loss is only a recompute).
    """
    body = json.dumps(payload, indent=2, default=repr)
    text = f"{body}\n{TRAILER_PREFIX}{_sha(body)}\n"
    dirpath = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirpath, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirpath, prefix=".stage-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            if faults.should_fire("partial-write"):
                # a torn write reaching the published path: half the bytes
                f.truncate(len(text.encode()) // 2)
            if fsync:
                os.fsync(f.fileno())
        _publish(tmp, path, dirpath, fsync)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text_atomic(path: str, text: str, *, fsync: bool = False) -> None:
    """Atomically publish plain text (no checksum trailer) — for files whose
    integrity is validated downstream (generated C source, compiled ``.so``
    objects checked at load)."""
    dirpath = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirpath, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirpath, prefix=".stage-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            if fsync:
                os.fsync(f.fileno())
        _publish(tmp, path, dirpath, fsync)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_record(path: str) -> object:
    """Load and verify one record.

    Raises :class:`CorruptRecordError` on a missing or truncated trailer, a
    bad checksum, or undecodable content; propagates :class:`OSError` when
    the file cannot be read at all.
    """
    with open(path, "rb") as f:
        raw = f.read()
    text = raw.decode("utf-8", errors="replace")
    stripped = text.rstrip("\n")
    body, sep, last = stripped.rpartition("\n")
    if not last.startswith(TRAILER_PREFIX):
        raise CorruptRecordError(
            f"record {path!r} has no sha256 trailer (torn write, or not a record)", path
        )
    digest = last[len(TRAILER_PREFIX):].strip()
    if _sha(body) != digest:
        raise CorruptRecordError(
            f"record {path!r} failed its sha256 check (torn or corrupt write)",
            path,
        )
    try:
        return json.loads(body)
    except json.JSONDecodeError as err:
        raise CorruptRecordError(
            f"record {path!r} has a valid checksum but undecodable JSON ({err})",
            path,
        ) from err


def quarantine_file(path: str) -> Optional[str]:
    """Move a corrupt file aside to ``<path>.corrupt-<digest>`` (evidence
    preserved, content-addressed so repeats collapse).  Returns the
    destination, or ``None`` when the file vanished or could not be moved."""
    try:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:8]
    except OSError:
        return None
    dest = f"{path}.corrupt-{digest}"
    try:
        os.replace(path, dest)
    except OSError:
        return None
    return dest


def _cpu_model() -> str:
    """The CPU model string.  ``platform.processor()`` is empty on most
    Linux systems, which would collapse distinct CPUs into one key — read
    ``/proc/cpuinfo`` there."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "cpu"


@functools.lru_cache(maxsize=None)
def machine_id() -> str:
    """A stable identifier for this machine (OS + ISA + CPU model): tuned knob
    values are only comparable, and compiled artifacts only loadable, within
    one of these.  Read once per process (the machine does not change under
    it): every artifact key and leaderboard key asks."""
    return f"{platform.system()}-{platform.machine()}-{_cpu_model()}".replace(" ", "_")
