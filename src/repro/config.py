"""repro.config — the only module that reads the environment.

Six ``REPRO_*`` variables steer the execution stack, and two belong to the
toolchain.  Each has one accessor here, read afresh on every call (tests
monkeypatch them, the benchmark scrubs them by name), and every ``REPRO_*``
accessor either returns a validated value or raises :class:`ConfigError`
naming the variable — a typo never silently falls back to the default:

=========================== ===============================================
``REPRO_EXEC_BACKEND``      default ``run_proc`` backend (a valid backend
                            name; unset: ``compiled``)
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

The toolchain's own variables, ``CC`` (:func:`cc_name`) and ``PATH``
(:func:`search_path`), have no grammar of ours; they are read here like the
rest, for :func:`repro.backend.native.find_cc`.  :func:`native_probe` reads
them raw, with ``REPRO_NATIVE_CACHE``, ``HOME`` and ``REPRO_FAULTS``, as the
key of the native backend's per-procedure record.

A leaf: it imports nothing from ``repro``; accessors that need a layer's
vocabulary (the valid backends, the valid faults) take it as an argument.
"""

from __future__ import annotations

import os
from typing import Collection, Dict, FrozenSet, Optional, Tuple

__all__ = [
    "ConfigError",
    "cc_name",
    "exec_backend",
    "faults",
    "guard_enabled",
    "guard_timeout_s",
    "native_cache_dir",
    "native_probe",
    "num_threads",
    "search_path",
]

_FALSE = ("0", "off", "no", "false")
_TRUE = ("1", "on", "yes", "true")


class ConfigError(ValueError):
    """A ``REPRO_*`` environment variable holds a value its grammar rejects.

    Raised where the variable is used (so possibly mid-``run_proc``), and on
    purpose not an ``ExoError``: no fallback ladder may absorb a typo."""


# ``os.environ`` is a ``MutableMapping`` whose ``get`` and ``in`` go through
# ``__getitem__``, which raises and catches ``KeyError`` for an unset name:
# 0.7 us a read, and the warm native path asks about several unset variables
# per call.  No public accessor avoids that, so a read goes to the mapping's
# own store, ``os.environ._data``, through its own ``encodekey`` /
# ``decodevalue``.  Every write through ``os.environ`` (``monkeypatch.setenv``
# / ``delenv`` included) updates that store in the same statement as the
# process environment, so the read is exactly as fresh as ``os.environ.get``;
# a bare ``os.putenv`` bypasses both alike.  Where the store is not a dict
# (another Python), reads fall back to ``os.environ.get``.
_ENVIRON = os.environ
_STORE = getattr(_ENVIRON, "_data", None)
if type(_STORE) is not dict:
    _STORE = None
_KEYS: Dict[str, object] = {}  # name -> its key in the store


def _get(name: str) -> Optional[str]:
    """The variable's value, or None when unset."""
    if _STORE is None:
        return _ENVIRON.get(name)
    key = _KEYS.get(name)
    if key is None:
        key = _KEYS[name] = _ENVIRON.encodekey(name)
    raw = _STORE.get(key)
    return None if raw is None else _ENVIRON.decodevalue(raw)


def _raw(name: str) -> str:
    return (_get(name) or "").strip()


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
    raw = _get("REPRO_FAULTS") or ""
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


def native_cache_dir() -> str:
    """``REPRO_NATIVE_CACHE``: a directory path (unset or empty:
    ``~/.cache/repro/native``)."""
    return _get("REPRO_NATIVE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "native"
    )


# what native_probe reads, and their keys in the store (spelled out: the probe
# is on the warm path of every native call)
_PROBED = ("REPRO_FAULTS", "CC", "PATH", "REPRO_NATIVE_CACHE", "HOME")
if _STORE is not None:
    _K_FAULTS, _K_CC, _K_PATH, _K_CACHE, _K_HOME = map(_ENVIRON.encodekey, _PROBED)


def native_probe() -> Optional[tuple]:
    """The raw values of every variable the native backend's resolution
    reads — ``CC``, ``PATH``, ``REPRO_NATIVE_CACHE`` and ``HOME`` (the
    default cache directory is under it) — as the store holds them (unset:
    None), for :func:`repro.backend.native.compile_native` to key its
    per-procedure record on: equal probes, equal resolution.  None while
    ``REPRO_FAULTS`` is set, since an armed fault site must then be
    consulted on every call."""
    if _STORE is None:
        values = tuple(map(_ENVIRON.get, _PROBED))
        return None if values[0] else values[1:]
    get = _STORE.get
    if get(_K_FAULTS):
        return None
    return (get(_K_CC), get(_K_PATH), get(_K_CACHE), get(_K_HOME))


def cc_name() -> str:
    """``CC``: the C compiler's name or path (unset or empty: ``cc``)."""
    return _get("CC") or "cc"


def search_path() -> Optional[str]:
    """``PATH``: where a compiler name is looked up, or None when unset."""
    return _get("PATH")
