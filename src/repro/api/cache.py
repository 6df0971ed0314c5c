"""The schedule replay cache.

Scheduling is pure: the same :class:`Schedule` (same fingerprint, same knob
values) applied to structurally identical object code always yields
structurally identical output.  The :class:`ReplayCache` exploits this by
keying ``(struct_hash(proc), schedule fingerprint)`` to the scheduled result
and its trace, so repeated scheduling in benchmarks, tests, and batch kernel
generation is near-free.

The key uses :func:`repro.ir.build.struct_hash`, which is a pure function of
the tree's structure — content, not identity — so a cache entry keeps hitting
after unrelated procedures have been edited, and the in-memory map is safe to
share between threads (all map and counter mutation is lock-guarded; the
schedule service's workers hit one shared instance).

``maxsize`` bounds the in-memory map with true LRU eviction: *both* ``get``
and ``put`` refresh an entry's recency, so a sweep that keeps re-applying
one hot schedule never sees it evicted just because it was inserted first.

Persistent backend (ISSUE 8)
----------------------------
``ReplayCache(path="...")`` adds an on-disk, content-addressed tier shared
across processes: every ``put`` also publishes the schedule's **trace** as a
checksummed :mod:`repro.persist` record keyed by ``(state_hash(proc),
sha256(fingerprint))`` — both components are process-stable, unlike the
in-memory ``struct_hash`` — sharded by the leading byte of the procedure
digest.  A memory miss probes the disk tier and, on a hit, *replays* the
stored trace against the procedure to rebuild the scheduled result (so a
disk hit returns a procedure anchored at *your* input — fresher provenance
than a memory hit).  Corrupt or torn records are quarantined and treated as
misses; concurrent writers are safe without locks because identical keys
carry identical content and records publish atomically.  This is the store
the ROADMAP's schedule service shares across workers.

Caveat: an in-memory cache hit returns the procedure object produced by the
*original* application, so its provenance chain (for ``forward``) anchors at
the original input, not at the structurally-equal procedure you passed in.
Cursor-free consumers (execution, code generation, metrics) are unaffected.

The module exports one process-wide instance, :data:`schedule_cache`, shared
by the library batch helpers (``repro.blas.scheduled_level1/2``):

>>> from repro.api import schedule_cache, ReplayCache
>>> isinstance(schedule_cache, ReplayCache)
True
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, Optional, Tuple

from ..core.procedure import Procedure
from ..ir.build import struct_hash
from ..persist import CorruptRecordError, quarantine_file, read_record, write_record

__all__ = ["ReplayCache", "schedule_cache"]

_DISK_VERSION = 1


class ReplayCache:
    """A map from ``(proc struct_hash, schedule fingerprint)`` to
    ``(scheduled Procedure, Trace)``, with hit/miss accounting, true-LRU
    bounded memory, and an optional persistent disk tier (``path``).

    >>> from repro.api import ReplayCache, S
    >>> from repro.blas import LEVEL1_KERNELS
    >>> cache = ReplayCache()
    >>> s = S.divide_loop("i", 8, ["io", "ii"])
    >>> p1 = s.apply(LEVEL1_KERNELS["saxpy"], cache=cache)   # cold: runs
    >>> p2 = s.apply(LEVEL1_KERNELS["saxpy"], cache=cache)   # warm: cached
    >>> p1 is p2, cache.stats()
    (True, {'hits': 1, 'misses': 1, 'entries': 1})
    """

    def __init__(self, maxsize: Optional[int] = None, path: Optional[str] = None):
        self._store: Dict[Tuple[int, str], Tuple[Procedure, object]] = {}
        # guards the map and the counters (LRU reordering and hit/miss
        # bookkeeping are read-modify-write); slow disk probes and trace
        # replays deliberately run outside it
        self._lock = threading.Lock()
        self.maxsize = maxsize
        self.path = path
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0
        self.disk_errors = 0

    @staticmethod
    def key(proc: Procedure, fingerprint: str) -> Tuple[int, str]:
        """The cache key: structural hash of the object code plus the
        schedule's knob-resolved fingerprint."""
        return (struct_hash(proc._root), fingerprint)

    # -- the persistent tier ---------------------------------------------------

    def record_path(self, proc: Procedure, fingerprint: str) -> str:
        """Where this entry's trace record lives on disk: content-addressed
        by process-stable digests, sharded by the procedure digest's leading
        byte (the shard scheme the schedule service fans out over)."""
        from .trace import state_hash

        proc_digest = state_hash(proc)
        fp_digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
        return os.path.join(self.path, proc_digest[:2], f"{proc_digest}-{fp_digest}.json")

    def _disk_get(self, proc: Procedure, fingerprint: str):
        from .trace import Trace, replay

        path = self.record_path(proc, fingerprint)
        try:
            payload = read_record(path)
        except CorruptRecordError:
            # torn or rotted record: preserve the evidence, treat as a miss
            # (the recompute that follows republishes a good one)
            quarantine_file(path)
            self.disk_errors += 1
            return None
        except OSError:
            return None
        if not isinstance(payload, dict) or payload.get("version") != _DISK_VERSION:
            return None
        trace_dict = payload.get("trace")
        if not trace_dict:
            return None
        try:
            result = replay(trace_dict, proc)
            return result, Trace.from_dict(trace_dict)
        except Exception:
            # a trace recorded by an incompatible primitive set; not corrupt
            # on disk, just unusable here
            self.disk_errors += 1
            return None

    def _disk_put(self, proc: Procedure, fingerprint: str, trace) -> None:
        to_dict = getattr(trace, "to_dict", None)
        replayable = getattr(trace, "replayable", None)
        if to_dict is None or (replayable is not None and not replayable()):
            return
        from .trace import state_hash

        payload = {
            "version": _DISK_VERSION,
            "proc": state_hash(proc),
            "fingerprint": fingerprint,
            "trace": to_dict(),
        }
        try:
            write_record(self.record_path(proc, fingerprint), payload, fsync=False)
            self.disk_writes += 1
        except OSError:
            self.disk_errors += 1  # a full disk must not break scheduling

    # -- the in-memory tier ----------------------------------------------------

    def get_memory(self, proc: Procedure, fingerprint: str):
        """The memory tier alone: the cached pair, counted as a hit and
        refreshed, or ``None`` with nothing counted and no disk probe — the
        caller that then falls back to :meth:`get` has the miss counted there
        (the schedule service probes with this from its event loop, where a
        disk read and a trace replay have no place)."""
        k = self.key(proc, fingerprint)
        with self._lock:
            hit = self._store.get(k)
            if hit is not None:
                self._store[k] = self._store.pop(k)  # refresh recency: true LRU
                self.hits += 1
            return hit

    def get(self, proc: Procedure, fingerprint: str):
        """The cached ``(Procedure, Trace)`` pair, or ``None`` (counted)."""
        hit = self.get_memory(proc, fingerprint)
        if hit is not None:
            return hit
        if self.path is not None:
            got = self._disk_get(proc, fingerprint)
            if got is not None:
                with self._lock:
                    self._insert(self.key(proc, fingerprint), got)
                    self.hits += 1
                    self.disk_hits += 1
                return got
        with self._lock:
            self.misses += 1
        return None

    def _insert(self, k, value) -> None:
        # caller holds self._lock
        if k in self._store:
            self._store.pop(k)
        elif self.maxsize is not None and len(self._store) >= self.maxsize:
            # evict the least recently *used* entry (get/put both refresh)
            self._store.pop(next(iter(self._store)), None)
        self._store[k] = value

    def put(self, proc: Procedure, fingerprint: str, result: Procedure, trace) -> None:
        with self._lock:
            self._insert(self.key(proc, fingerprint), (result, trace))
        if self.path is not None:
            self._disk_put(proc, fingerprint, trace)

    def clear(self) -> None:
        """Drop the in-memory tier and reset counters (disk records persist
        — they are the cross-process state; remove the directory to reset)."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_writes = 0
            self.disk_errors = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            out = {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}
        if self.path is not None:
            out.update(
                disk_hits=self.disk_hits,
                disk_writes=self.disk_writes,
                disk_errors=self.disk_errors,
            )
        return out

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        where = f" @ {self.path}" if self.path else ""
        return (
            f"<ReplayCache{where} {len(self)} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )


#: Process-wide default cache; pass ``cache=schedule_cache`` to
#: ``Schedule.apply`` (benchmarks and batch kernel generation do); doctested
#: in the module docstring above.
schedule_cache = ReplayCache()
