"""Named fault injection at real call sites.

The execution stack claims to survive a list of concrete failures — a missing
or flaky C compiler, a corrupt cache artifact, a miscompiled kernel that
segfaults or hangs, a tuning candidate that dies, a lost race publishing into
the artifact cache.  This module makes each of those failures *triggerable on
demand* so the claim is testable: production code calls :func:`should_fire`
at the exact point where the real failure would occur, and tests (or a chaos
CI job) arm the fault by name.

Two arming mechanisms compose:

* :func:`inject` — a context manager for tests.  ``inject("cc-transient",
  times=1)`` fires the fault once and then disarms, which is how transient
  failures are modelled.  Injected state is plain module state, so a forked
  guard child inherits it (deliberate: the ``kernel-*`` faults fire inside
  a kernel's quarantined first run, ``worker-crash`` inside an isolated
  candidate's child).
* ``REPRO_FAULTS`` — a comma-separated list of fault names in the
  environment, for whole-process chaos runs (``REPRO_FAULTS=cc-missing
  pytest``).  Environment faults are always armed and never consumed.

Unknown fault names are rejected loudly (:class:`FaultError`, or
:class:`~repro.config.ConfigError` for the variable, lists the valid names)
— a typo in a chaos configuration must not silently test nothing.

The fault names and the sites that honour them:

=================== =========================================================
``cc-missing``      :func:`repro.backend.native.find_cc` reports no compiler
``cc-transient``    the ``cc`` subprocess invocation raises :class:`OSError`
                    (retried with backoff; permanent arming exhausts the
                    retries and degrades to the NumPy engine)
``artifact-corrupt`` a cached ``.so`` is truncated just before it is loaded
                    (exercises evict-and-rebuild)
``kernel-segfault`` a kernel's quarantined first run dies with SIGSEGV
``kernel-hang``     a kernel's quarantined first run sleeps past the watchdog
``worker-crash``    an isolated tuning candidate calls ``os._exit`` before it
                    measures (it scores ``"crash"``)
``publish-race``    publishing an artifact into the cache raises
                    :class:`OSError` (retried with backoff)
``partial-write``   :mod:`repro.persist` publishes a *torn* record/journal
                    line (half the bytes) — exercises checksum detection and
                    quarantine on the next load
``lock-timeout``    :class:`repro.persist.lock.FileLock` acquisition times
                    out immediately — exercises every caller's
                    lock-contention degradation path
``kill-mid-publish`` the writing process is SIGKILLed between staging a
                    record and ``os.replace`` (or mid journal append).
                    **Kills the process that hits the site** — arm it only
                    around forked victims (the ``tests/persist`` kill
                    harness) or in a chaos run whose tests fork their writers
``omp-missing``     :func:`repro.backend.native.openmp_supported` reports the
                    toolchain cannot build with ``-fopenmp`` — ``par`` kernels
                    compile sequentially and record an ``omp-missing``
                    fallback event
``thread-pool-exhausted`` :func:`repro.interp.parallel.par_for` finds no
                    worker threads available — the dispatch degrades to
                    running its chunks serially on the calling thread (same
                    partition, same results)
=================== =========================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Optional

from .. import config
from ..errors import ExoError

__all__ = [
    "VALID_FAULTS",
    "FaultError",
    "inject",
    "should_fire",
    "is_active",
    "active_faults",
    "env_faults",
]

VALID_FAULTS = frozenset(
    {
        "cc-missing",
        "cc-transient",
        "artifact-corrupt",
        "kernel-segfault",
        "kernel-hang",
        "worker-crash",
        "publish-race",
        "partial-write",
        "lock-timeout",
        "kill-mid-publish",
        "omp-missing",
        "thread-pool-exhausted",
    }
)


class FaultError(ExoError):
    """A fault name is not one the execution stack knows how to trigger."""


def _check_name(name: str) -> str:
    if name not in VALID_FAULTS:
        raise FaultError(
            f"unknown fault {name!r}; valid faults are {', '.join(sorted(VALID_FAULTS))}"
        )
    return name


#: injected fault -> [remaining skips, remaining fires (None = unlimited)]
_injected: Dict[str, list] = {}

def env_faults() -> FrozenSet[str]:
    """The faults armed through ``REPRO_FAULTS`` (validated, memoised per
    distinct value of the variable)."""
    return config.faults(VALID_FAULTS)


def is_active(name: str) -> bool:
    """Is the fault currently armed (without consuming a fire)?"""
    _check_name(name)
    return name in env_faults() or name in _injected


def active_faults() -> FrozenSet[str]:
    """Every currently armed fault (environment + injected)."""
    return env_faults() | frozenset(_injected)


def should_fire(name: str) -> bool:
    """Called by production code at the fault's real site.

    Environment-armed faults always fire.  Injected faults fire until their
    ``times`` budget is spent.
    """
    _check_name(name)
    if name in env_faults():
        return True
    state = _injected.get(name)
    if state is None:
        return False
    skip, times = state
    if skip > 0:
        state[0] = skip - 1
        return False
    if times is None:
        return True
    if times <= 0:
        return False
    state[1] = times - 1
    return True


@contextmanager
def inject(name: str, times: Optional[int] = None, skip: int = 0):
    """Arm ``name`` for the dynamic extent of the block.

    ``times`` bounds how often the fault fires (``None`` = every time the
    site is reached while armed); ``skip`` lets that many site visits pass
    clean first — how a test kills a victim at its K-th persist, not its
    first.  Nesting the same fault restores the outer arming on exit.
    """
    _check_name(name)
    had = name in _injected
    prev = _injected.get(name)
    _injected[name] = [skip, times]
    try:
        yield
    finally:
        if had:
            _injected[name] = prev
        else:
            _injected.pop(name, None)
