"""repro.persist — the shared crash-consistent persistence layer.

PR 7 hardened *execution* against hostile kernels; this subsystem hardens
*state* against hostile schedulers: crashes, ``kill -9``, and concurrent
writers.  Every on-disk store in the repo — the tuner leaderboard, the
persistent replay cache, the native-artifact trust sidecars, and the tune
checkpoint journal — goes through one of three primitives:

* :mod:`repro.persist.store` — checksummed atomic JSON records (sha256
  trailer; ``mkstemp``-in-directory staging so concurrent writers never
  collide; fsync file *and* parent directory around ``os.replace``) with
  torn/corrupt-write detection and evidence-preserving quarantine on load.
* :mod:`repro.persist.lock` — advisory ``fcntl`` inter-process locks with a
  bounded acquisition timeout; contention degrades (callers fall back to
  in-memory and emit a ``lock-contention``
  :class:`~repro.guard.events.FallbackEvent`) instead of hanging.
* :mod:`repro.persist.journal` — append-only per-line-checksummed logs for
  incremental state (tune checkpoints), where a crash loses at most the
  entry being written.

The layer's failure modes are themselves fault-injectable
(``partial-write``, ``lock-timeout``, ``kill-mid-publish`` in
:mod:`repro.guard.faults`), and ``tests/persist`` proves the guarantees with
a ``kill -9``-during-save harness and a multi-process chaos test.
``tools/repro_fsck.py`` is the matching doctor CLI.

See the "Persistence and crash consistency" section of
``docs/robustness.md`` for the full guide.
"""

from .journal import Journal
from .lock import FileLock, LockTimeout
from .store import (
    TRAILER_PREFIX,
    CorruptRecordError,
    PersistError,
    machine_id,
    quarantine_file,
    read_record,
    write_record,
    write_text_atomic,
)

__all__ = [
    "PersistError",
    "CorruptRecordError",
    "write_record",
    "read_record",
    "write_text_atomic",
    "quarantine_file",
    "machine_id",
    "TRAILER_PREFIX",
    "FileLock",
    "LockTimeout",
    "Journal",
]
