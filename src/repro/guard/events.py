"""Structured degradation records.

Every time the execution stack silently moves down the backend ladder
(``c → compiled → interp``) it records a :class:`FallbackEvent` here instead
of (as before this subsystem existed) emitting a one-shot
:class:`RuntimeWarning`.  Events carry *why* (a stable reason string), *where*
(the ladder stage), and *what* (procedure name, artifact cache key), so a
tuner sweep or a long-lived service can ask "how degraded am I?" rather
than scraping warning text.  The records live in the one bounded event ring
of :mod:`repro.obs` — ``obs.events()`` returns the most recent
``obs.MAX_EVENTS``, and ``obs.counters("fallback.")`` the exact per-reason
totals, which the ring dropping old records never disturbs.

Reason strings are stable identifiers, not prose — the interesting ones:

* ``cc-missing`` / ``cc-timeout`` / ``native-unavailable`` — no toolchain,
  a compiler that never returned, or compile/load failed
* ``lean-headers-rejected`` — the compiler refused a unit's lean x86 headers
  and built it behind the umbrella header instead (stage ``c-lean->c-wide``;
  the kernel still runs natively, ``detail`` is the first error line)
* ``codegen-declined`` — the procedure cannot be lowered to C
* ``kernel-segfault`` / ``kernel-hang`` — the quarantined first run died or
  timed out (the artifact is now poisoned)
* ``poisoned-artifact`` — a previously poisoned artifact was skipped without
  re-entering the guard
* ``native-run-error`` — the compiled kernel rejected its arguments
* ``compile-error`` — the NumPy engine could not compile; the tree
  interpreter took over
* ``par-unlowerable`` — a ``par`` loop could not be proven race-free by the
  engines' shared rule (:func:`repro.analysis.effects.par_write_classes`),
  or has no mechanism on that engine; it lowered sequentially (stage
  ``par->seq`` in the compiled engine, ``c-par->c-seq`` in the C backend;
  ``detail`` says why)
* ``omp-missing`` — the toolchain cannot build with ``-fopenmp``; a ``par``
  kernel was compiled without OpenMP (stage ``c-par->c-seq``)
* ``thread-pool-exhausted`` — no worker threads were available; a parallel
  dispatch ran its chunks serially (stage ``par->serial``)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import obs

__all__ = ["FallbackEvent", "record_fallback"]


@dataclass(frozen=True)
class FallbackEvent:
    """One step down the backend degradation ladder."""

    proc: str  #: procedure name
    stage: str  #: e.g. ``"c->compiled"``, ``"compiled->interp"``
    reason: str  #: stable reason identifier (see module docstring)
    artifact_key: Optional[str] = None  #: native cache key, when one exists
    detail: str = field(default="", compare=False)  #: human-readable context


def record_fallback(
    proc: str,
    stage: str,
    reason: str,
    artifact_key: Optional[str] = None,
    detail: str = "",
) -> FallbackEvent:
    """Record one degradation step and return the event.  Thread-safe."""
    ev = FallbackEvent(proc, stage, reason, artifact_key, detail)
    obs.emit("fallback." + reason, ev)
    return ev
