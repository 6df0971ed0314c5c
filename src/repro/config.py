"""repro.config — the only module that reads ``REPRO_*``.

Seven environment variables steer the execution stack.  Each has one
accessor here, read afresh on every call (tests monkeypatch them, the
benchmark scrubs them by name), and every accessor either returns a
validated value or raises :class:`ConfigError` naming the variable — a typo
never silently falls back to the default:

=========================== ===============================================
``REPRO_EXEC_BACKEND``      default ``run_proc`` backend (a valid backend
                            name; unset: ``compiled``)
``REPRO_EXEC_INLINE``       boolean; the NumPy engine's cross-procedure
                            inliner (unset: on)
``REPRO_NUM_THREADS``       integer >= 1; worker count of ``par`` loops
                            (unset: the CPU count)
``REPRO_GUARD``             boolean; first-run quarantine of native
                            artifacts (unset: on)
``REPRO_GUARD_TIMEOUT``     seconds > 0; the quarantine watchdog
                            (unset: 30)
``REPRO_FAULTS``            comma-separated fault names to arm
                            (see :mod:`repro.guard.faults`)
``REPRO_NATIVE_CACHE``      directory of the native artifact cache
                            (unset: ``~/.cache/repro/native``)
=========================== ===============================================

Booleans share one grammar, case-insensitive: ``0`` / ``off`` / ``no`` /
``false`` and ``1`` / ``on`` / ``yes`` / ``true``.  An unset or empty
variable means its default.

A leaf: it imports nothing from ``repro``; accessors that need a layer's
vocabulary (the valid backends, the valid faults) take it as an argument.
"""

from __future__ import annotations

import os
from typing import Collection, FrozenSet, Optional, Tuple

__all__ = [
    "ConfigError",
    "exec_backend",
    "exec_inline",
    "faults",
    "guard_enabled",
    "guard_timeout_s",
    "native_cache_dir",
    "num_threads",
]

_FALSE = ("0", "off", "no", "false")
_TRUE = ("1", "on", "yes", "true")


class ConfigError(ValueError):
    """A ``REPRO_*`` environment variable holds a value its grammar rejects.

    Raised where the variable is used (so possibly mid-``run_proc``), and on
    purpose not an ``ExoError``: no fallback ladder may absorb a typo."""


def _raw(name: str) -> str:
    return os.environ.get(name, "").strip()


def _flag(name: str, default: bool) -> bool:
    raw = _raw(name).lower()
    if not raw:
        return default
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ConfigError(
        f"{name}={raw!r} is not a boolean; use one of {', '.join(_FALSE + _TRUE)}"
    )


def exec_backend(valid: Collection[str]) -> Optional[str]:
    """``REPRO_EXEC_BACKEND``: one of ``valid``, or None when unset."""
    raw = _raw("REPRO_EXEC_BACKEND")
    if raw and raw not in valid:
        raise ConfigError(
            f"REPRO_EXEC_BACKEND={raw!r} is not an execution backend; "
            f"valid backends: {', '.join(valid)}"
        )
    return raw or None


def exec_inline() -> bool:
    """``REPRO_EXEC_INLINE``: boolean, default on."""
    return _flag("REPRO_EXEC_INLINE", True)


def num_threads() -> Optional[int]:
    """``REPRO_NUM_THREADS``: an integer >= 1, or None when unset."""
    raw = _raw("REPRO_NUM_THREADS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"REPRO_NUM_THREADS={raw!r} is not an integer >= 1")
    return n


def guard_enabled() -> bool:
    """``REPRO_GUARD``: boolean, default on.  Off skips the first-run
    quarantine wholesale (e.g. in a sandbox that already isolates processes)."""
    return _flag("REPRO_GUARD", True)


def guard_timeout_s() -> float:
    """``REPRO_GUARD_TIMEOUT``: the quarantine watchdog, seconds > 0
    (default 30)."""
    raw = _raw("REPRO_GUARD_TIMEOUT")
    if not raw:
        return 30.0
    try:
        t = float(raw)
    except ValueError:
        t = 0.0
    if not 0 < t < float("inf"):
        raise ConfigError(f"REPRO_GUARD_TIMEOUT={raw!r} is not a number of seconds > 0")
    return t


_faults_memo: Tuple[Optional[str], FrozenSet[str]] = (None, frozenset())


def faults(valid: Collection[str]) -> FrozenSet[str]:
    """``REPRO_FAULTS``: the comma-separated names, each one of ``valid``.
    Fault sites ask on every call, so the parse is memoised per distinct
    value of the variable (the variable itself is still read each time)."""
    global _faults_memo
    raw = os.environ.get("REPRO_FAULTS", "")
    if _faults_memo[0] == raw:
        return _faults_memo[1]
    names = frozenset(n.strip() for n in raw.split(",") if n.strip())
    unknown = sorted(names - set(valid))
    if unknown:
        raise ConfigError(
            f"REPRO_FAULTS names unknown fault(s) {', '.join(unknown)}; "
            f"valid faults are {', '.join(sorted(valid))}"
        )
    _faults_memo = (raw, names)
    return names


def native_cache_dir() -> Optional[str]:
    """``REPRO_NATIVE_CACHE``: a directory path, or None when unset."""
    return os.environ.get("REPRO_NATIVE_CACHE") or None
