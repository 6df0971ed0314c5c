"""Bounded retry with exponential backoff for transient failures.

Used around the two native-backend operations that can fail transiently in
the real world: spawning the C compiler (fork/exec can lose to resource
pressure) and publishing an artifact into the shared on-disk cache (rename
can lose a race on some filesystems).  Deterministic compile errors are *not*
retried — the caller only routes :class:`OSError`-shaped failures here.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

from .. import obs

__all__ = ["with_retry"]

T = TypeVar("T")


def with_retry(
    fn: Callable[[], T],
    *,
    attempts: int = 3,
    base_delay_s: float = 0.05,
    label: str = "operation",
) -> T:
    """Call ``fn`` up to ``attempts`` times, sleeping ``base_delay_s * 2**i``
    (capped at one second) between tries.  Only :class:`OSError` is retried;
    the final failure propagates unchanged.  Every retried attempt counts
    under ``retry.<label>`` in :mod:`repro.obs`."""
    if attempts < 1:
        raise ValueError("with_retry needs attempts >= 1")
    for i in range(attempts):
        try:
            return fn()
        except OSError:
            if i == attempts - 1:
                raise
            obs.add("retry." + label)
            time.sleep(min(1.0, base_delay_s * (2**i)))
