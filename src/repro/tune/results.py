"""The autotuning leaderboard: persisted, machine-keyed tuning results.

Every measurement a tune run produces is recorded under the board key

    ``(proc digest, schedule fingerprint, machine id)``

— the digest identifies the object code being scheduled (the sha256 of its
printed form, via :func:`repro.api.trace.state_hash`: unlike the in-memory
``struct_hash``, whose symbol hashing is randomized per process, it is
stable across process restarts — the whole point of persisting), the
*default-resolved* schedule fingerprint identifies the schedule family being
swept, and the machine id pins the numbers to the hardware they were
measured on (knob optima are machine-dependent; a leaderboard from another
box must not warm-start this one).  Re-running a tune loads the board first
and seeds the search with the persisted best config, so repeated tuning
converges instead of starting blind.

The on-disk format is one checksummed :mod:`repro.persist` record holding
``{"version": 1, "boards": {key: board}}`` where each board holds per-config
best times plus the current champion.  A corrupt or future-versioned file is
*quarantined* — renamed to ``<path>.corrupt-<digest>`` with a warning — and
the board starts fresh: a truncated write from a killed tune run must not
brick every future tune, and the renamed file preserves the evidence instead
of silently clobbering it.

Concurrent tuners sharing one board path are first-class (ISSUE 8):
:meth:`Leaderboard.save` takes the board's advisory
:class:`~repro.persist.lock.FileLock`, **reloads the on-disk board and
merges it** (per-config minima, poison-wins, champion recomputed) before
publishing, so N processes tuning against the same path lose zero
measurements regardless of interleaving.  If the lock cannot be acquired
within ``lock_timeout_s`` the save degrades to in-memory only — a
``lock-contention`` :class:`~repro.guard.events.FallbackEvent` is recorded
and a warning emitted, but the tune run is never blocked on a wedged holder.

Crash/timeout measurements are poison-listed (:data:`POISONED_STATUSES`,
:meth:`Leaderboard.poisoned`): a warm-started re-tune skips configs whose
best-known outcome was killing or wedging a worker, so one bad knob corner is
paid for exactly once per machine.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, List, Optional, Set

from ..api.trace import state_hash
from ..core.procedure import Procedure
from ..guard.events import record_fallback
from ..persist import CorruptRecordError, FileLock, LockTimeout, machine_id, quarantine_file
from ..persist import read_record as _read_record
from ..persist import write_record as _write_record
from .runner import Measurement
from .space import Config, TuneError

__all__ = [
    "Leaderboard",
    "board_key",
    "config_key",
    "POISONED_STATUSES",
]

#: Measurement statuses that poison-list a config: outcomes where the
#: candidate killed or wedged its worker, which a re-tune must never repeat.
#: A plain ``"error"`` (schedule refused, compile failed) stays re-tryable —
#: it is cheap and deterministic, not dangerous.
POISONED_STATUSES = frozenset({"crash", "timeout"})


def board_key(proc: Procedure, schedule, machine: Optional[str] = None) -> str:
    """The leaderboard key for tuning ``schedule`` on ``proc``: a
    process-stable digest of the object code, the default-resolved schedule
    fingerprint, and the machine id."""
    return f"{state_hash(proc)}/{schedule.fingerprint()}/{machine or machine_id()}"


def config_key(config: Config) -> str:
    """The canonical string key for one knob environment (sorted JSON) —
    the key :meth:`Leaderboard.poisoned` results are expressed in."""
    return json.dumps(config, sort_keys=True, default=repr)


_VERSION = 1


def _merge_entry(mine: Optional[dict], theirs: Optional[dict]) -> dict:
    """The per-config merge rule shared by :meth:`Leaderboard.record` and
    :meth:`Leaderboard.merge`: a poisoning outcome (crash/timeout) wins over
    anything, two ``ok`` entries keep the faster (ties keep ``mine``), an
    ``ok`` beats a plain error, and between two failures the incoming entry
    (the latest evidence) wins."""
    if mine is None:
        return theirs
    if theirs is None:
        return mine
    mine_poison = mine.get("status") in POISONED_STATUSES
    theirs_poison = theirs.get("status") in POISONED_STATUSES
    if mine_poison or theirs_poison:
        return mine if mine_poison else theirs
    mine_ok = mine.get("status") == "ok" and mine.get("time_s") is not None
    theirs_ok = theirs.get("status") == "ok" and theirs.get("time_s") is not None
    if mine_ok and theirs_ok:
        return mine if mine["time_s"] <= theirs["time_s"] else theirs
    if mine_ok:
        return mine
    if theirs_ok:
        return theirs
    return theirs


def _recompute_best(board: dict) -> None:
    """Champion = minimum-time ok entry; deterministic regardless of the
    order measurements and merges arrived in."""
    ok = [
        e
        for e in board["entries"].values()
        if e.get("status") == "ok" and e.get("time_s") is not None
    ]
    board["best"] = dict(min(ok, key=lambda e: e["time_s"])) if ok else None


class Leaderboard:
    """A map from board keys to per-config tuning results, persisted as JSON.

    ``path=None`` keeps the board in memory only (tests, throwaway sweeps).
    :meth:`record` keeps the best time seen per config and maintains the
    champion entry; :meth:`best` hands back the champion for warm-starting.
    """

    def __init__(self, path: Optional[str] = None, *, lock_timeout_s: float = 10.0):
        self.path = path
        self.lock_timeout_s = lock_timeout_s
        self.boards: Dict[str, dict] = {}
        if path is not None and os.path.exists(path):
            self.load()

    # -- persistence -----------------------------------------------------------

    def _read_disk(self) -> Optional[Dict[str, dict]]:
        """The board map currently on disk, or ``None`` when there is none
        worth keeping (missing, unreadable, corrupt — the latter quarantined
        with a warning; never raises)."""
        try:
            data = _read_record(self.path)
        except FileNotFoundError:
            return None
        except OSError as err:
            # can't even read it — nothing to preserve, start fresh
            warnings.warn(
                f"leaderboard {self.path!r} is unreadable ({err}); starting a fresh board",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        except CorruptRecordError as err:
            self._quarantine(str(err))
            return None
        if not isinstance(data, dict) or data.get("version") != _VERSION:
            got = data.get("version") if isinstance(data, dict) else None
            self._quarantine(f"unsupported version {got!r}")
            return None
        boards = data.get("boards", {})
        return boards if isinstance(boards, dict) else None

    def load(self) -> None:
        self.boards = self._read_disk() or {}

    def _quarantine(self, why: str) -> None:
        """Move a corrupt/foreign leaderboard file aside (named by content
        digest, so repeated loads of the same corruption collapse to one
        quarantine file) and warn; never raise."""
        dest = quarantine_file(self.path)
        where = f"moved to {dest!r}" if dest else "could not be moved aside"
        warnings.warn(
            f"leaderboard {self.path!r} is corrupt ({why}); {where}; starting a fresh board",
            RuntimeWarning,
            stacklevel=4,
        )

    def save(self) -> None:
        """Publish the board: take the advisory lock, **merge** whatever is
        on disk by now (another tuner may have saved since we loaded), and
        write one checksummed atomic record.  Lock contention degrades to
        in-memory operation instead of blocking — the measurements stay
        recorded on this object and the next successful save merges them."""
        if self.path is None:
            return
        lock = FileLock(f"{self.path}.lock", timeout_s=self.lock_timeout_s)
        try:
            lock.acquire()
        except LockTimeout as err:
            record_fallback(
                os.path.basename(self.path),
                "persist->memory",
                "lock-contention",
                detail=str(err),
            )
            warnings.warn(
                f"leaderboard {self.path!r}: {err}; keeping this save in memory only",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        try:
            disk = self._read_disk()
            if disk:
                self.merge(disk)
            _write_record(self.path, self.to_dict())
        finally:
            lock.release()

    def merge(self, other: Dict[str, dict]) -> None:
        """Fold another board map (the :meth:`to_dict` ``"boards"`` shape)
        into this one: per-config entries merge under the same rules as
        :meth:`record` — minimum ok time, poison outcomes win, an ok beats a
        plain error — and champions are recomputed.  This is what makes
        concurrent saves against one path lossless."""
        for key, oboard in other.items():
            if not isinstance(oboard, dict):
                continue
            board = self._board(key)
            for ck, entry in (oboard.get("entries") or {}).items():
                board["entries"][ck] = _merge_entry(board["entries"].get(ck), entry)
            _recompute_best(board)

    def to_dict(self) -> dict:
        return {"version": _VERSION, "boards": self.boards}

    # -- recording -------------------------------------------------------------

    def _board(self, key: str) -> dict:
        return self.boards.setdefault(key, {"entries": {}, "best": None})

    def record(self, key: str, measurement: Measurement) -> None:
        """Fold one measurement into the board: per-config minimum time,
        champion update.  Failed measurements are kept (with their error) so
        a re-tune can see which corners of the space are infeasible.  A
        crash/timeout overrides even a previous ``ok`` for the same config —
        a config that just killed a worker must be poison-listed regardless
        of its history — and evicts it from the championship if needed."""
        board = self._board(key)
        ck = config_key(measurement.config)
        board["entries"][ck] = _merge_entry(
            board["entries"].get(ck), measurement.to_dict()
        )
        _recompute_best(board)

    def record_many(self, key: str, measurements: List[Measurement]) -> None:
        for m in measurements:
            self.record(key, m)

    # -- queries ---------------------------------------------------------------

    def best(self, key: str) -> Optional[dict]:
        """The champion entry (``Measurement.to_dict()`` shape) or ``None``."""
        board = self.boards.get(key)
        return dict(board["best"]) if board and board.get("best") else None

    def entries(self, key: str) -> List[dict]:
        board = self.boards.get(key)
        return [dict(e) for e in board["entries"].values()] if board else []

    def poisoned(self, key: str) -> Set[str]:
        """The :func:`config_key` strings whose latest outcome was a crash or
        timeout — configs a warm-started re-tune must skip."""
        board = self.boards.get(key)
        if not board:
            return set()
        return {
            ck
            for ck, e in board["entries"].items()
            if e.get("status") in POISONED_STATUSES
        }

    def is_poisoned(self, key: str, config: Config) -> bool:
        return config_key(config) in self.poisoned(key)

    def stats(self, key: str) -> dict:
        entries = self.entries(key)
        ok = [e for e in entries if e.get("status") == "ok"]
        return {
            "configs": len(entries),
            "ok": len(ok),
            "errors": len(entries) - len(ok),
            "poisoned": len(self.poisoned(key)),
            "best": self.best(key),
        }

    def __repr__(self) -> str:
        where = self.path or "<memory>"
        return f"<Leaderboard {where}: {len(self.boards)} boards>"
