"""repro.guard — fault containment for the execution stack.

Freshly generated machine code is *untrusted until proven*: the first run of
a native artifact happens inside a forked, rlimited, watchdogged child
(:mod:`repro.guard.quarantine`, the one place the stack forks — an isolated
tuning candidate runs there too); a crash or hang poisons the artifact in the
on-disk cache instead of killing the host, and a clean run validates it so
every later call goes in-process at full speed.  Degradations down the
backend ladder (``c → compiled → interp``) are recorded as structured
:class:`FallbackEvent` records (:mod:`repro.guard.events`, kept and counted
by :mod:`repro.obs`), transient
toolchain and cache-publish failures are retried with bounded backoff
(:mod:`repro.guard.retry`), and every one of those failure modes can be
triggered on demand by the fault-injection framework
(:mod:`repro.guard.faults`) — which is how ``tests/guard`` and the chaos CI
job prove the containment actually works.

See ``docs/robustness.md`` for the full guide.
"""

from .events import FallbackEvent, record_fallback
from .faults import (
    VALID_FAULTS,
    FaultError,
    active_faults,
    env_faults,
    inject,
    is_active,
    should_fire,
)
from .quarantine import GuardReport, run_guarded
from .retry import with_retry

__all__ = [
    # events
    "FallbackEvent",
    "record_fallback",
    # faults
    "VALID_FAULTS",
    "FaultError",
    "inject",
    "should_fire",
    "is_active",
    "active_faults",
    "env_faults",
    # quarantine
    "GuardReport",
    "run_guarded",
    # retry
    "with_retry",
]
