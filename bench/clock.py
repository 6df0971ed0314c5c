"""A clock that is steady on a box whose speed is not.

The box this benchmark was sized on is a 2-vCPU shared VM whose cores run
at one of a few speed levels, about 30 % apart, and switch level every few
seconds, independently of each other and of anything this process does.
Wall-clock medians of identical work therefore differ by 10-25 % between
two runs, which is more than any regression bound worth having.

The fix is the noise control the issue asks for, applied continuously: a
fixed *probe* is timed between operations, and every measured interval is
rescaled by ``reference / probe`` using the probes taken just before and
just after it.  A reported time is thus "wall-clock time at the speed at
which the probe takes its reference time", which is this box when no
neighbour is active.  The probes touch nothing in ``src/``, so no change to
the stack can move them.  Raw wall-clock medians are printed next to the
calibrated ones.

Two probes, because a neighbour slows different resources differently
(measured: interpreter-bound and compute-bound work track the first within
4-5 %, streaming kernels only the second):

``cpu``     a pure-Python spin, about 0.7 ms: for everything the interpreter
            or a compiler does, and for cache-friendly native kernels;
``memory``  one NumPy add over 24 MiB, about 1 ms: for native kernels that
            stream tensors larger than L2 (only ``kernel_large`` asks for it).

An interval whose two ``cpu`` probes disagree by more than ``DRIFT_LIMIT``
straddled a speed change; the share of measured time in such intervals is
``machine.calib_drift``, and a window with too much of it is ``noisy``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: What the probes take on the sizing box when undisturbed.  Constants, so
#: that calibrated times from different runs share one scale.
REFERENCE_MS = {"cpu": 0.72, "memory": 1.02}
#: Two probes further apart than this saw different machine speeds.
DRIFT_LIMIT = 0.10
#: Short operations share a probe: one is taken at most this often.
PROBE_INTERVAL_S = 0.05


def _best_ms(fn: Callable[[], object], repeats: int) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best / 1e6


def _spin() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def spin_ms() -> float:
    """The ``cpu`` probe (best of 4: the first spins re-warm the core's
    caches and predictors after whatever just ran, a compiler included)."""
    return _best_ms(_spin, 4)


_STREAM: List[np.ndarray] = []


def stream_ms() -> float:
    """The ``memory`` probe: 24 MiB through the core, best of 3."""
    if not _STREAM:
        _STREAM.extend(np.ones(1 << 21, np.float32) for _ in range(3))
    a, b, c = _STREAM
    return _best_ms(lambda: np.add(a, b, out=c), 3)


PROBES: Dict[str, Callable[[], float]] = {"cpu": spin_ms, "memory": stream_ms}


def on_cpus(probe: Callable[[], float], cpus: Sequence[int], weights: Sequence[float]) -> Callable[[], float]:
    """``probe`` as a weighted mean over ``cpus``, visiting each by
    re-pinning the calling thread (for work split between a client CPU and
    a server CPU; ``weights`` is the split)."""

    def visit() -> float:
        here = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu, weight in zip(cpus, weights):
                os.sched_setaffinity(0, {cpu})
                total += weight * probe()
        finally:
            os.sched_setaffinity(0, here)
        return total / sum(weights)

    return visit


class CalibratedClock:
    """Accumulates intervals, each rescaled by the probes around it.

    ``lap(tag, raw_s, resource)`` hands in one measured interval; its scale
    is known only at the next probe.  ``settle()`` takes the probes if they
    are due (or ``force``) and returns the laps it settled as
    ``(tag, calibrated_s)``.  ``probes`` maps the resources this clock
    serves to their probe functions; every one is taken at every settle.
    """

    def __init__(self, probes: Optional[Dict[str, Callable[[], float]]] = None):
        self._probes = dict(probes or {"cpu": spin_ms})
        #: called with the ``cpu`` scale of each settled interval (the traced
        #: run stamps it on the spans that ended in the interval)
        self.on_settle: Optional[Callable[[float], None]] = None
        self.cpu_probes: List[float] = []
        self._last = self._take()
        self._last_t = time.perf_counter()
        self._pending: List[Tuple[object, float, str]] = []
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.drifting_s = 0.0
        self._open_t0: Optional[float] = None
        self._open_total = 0.0

    def _take(self) -> Dict[str, float]:
        taken = {resource: probe() for resource, probe in self._probes.items()}
        self.cpu_probes.append(taken["cpu"])
        return taken

    def lap(self, tag: object, raw_s: float, resource: str = "cpu") -> None:
        self._pending.append((tag, raw_s, resource))

    def settle(self, force: bool = False) -> List[Tuple[object, float]]:
        if not force and time.perf_counter() - self._last_t < PROBE_INTERVAL_S:
            return []
        before, after = self._last, self._take()
        self._last, self._last_t = after, time.perf_counter()
        scale = {r: REFERENCE_MS[r] / ((before[r] + after[r]) / 2.0) for r in after}
        drifting = abs(after["cpu"] - before["cpu"]) / min(after["cpu"], before["cpu"]) > DRIFT_LIMIT
        settled = []
        for tag, raw_s, resource in self._pending:
            self.raw_s += raw_s
            self.calibrated_s += raw_s * scale[resource]
            if drifting:
                self.drifting_s += raw_s
            settled.append((tag, raw_s * scale[resource]))
        self._pending.clear()
        if self.on_settle is not None:
            self.on_settle(scale["cpu"])
        return settled

    def time(self, fn: Callable[[], object]) -> Tuple[object, float]:
        """Run ``fn`` as one interval (or several, if it calls :meth:`split`)
        between fresh probes; return its result and its calibrated duration
        in seconds.  For long one-off intervals: a set-up."""
        self.settle(force=True)
        self._open_total = 0.0
        self._open_t0 = time.perf_counter()
        try:
            result = fn()
            self._close_segment()
        finally:
            self._open_t0 = None
        return result, self._open_total

    def split(self) -> None:
        """Inside :meth:`time`: end the current segment with a probe and
        start the next, so a long interval is rescaled piecewise."""
        if self._open_t0 is not None:
            self._close_segment()
            self._open_t0 = time.perf_counter()

    def _close_segment(self) -> None:
        self.lap(None, time.perf_counter() - self._open_t0)
        self._open_total += sum(s for _, s in self.settle(force=True))

    @property
    def drift_share(self) -> float:
        return self.drifting_s / self.raw_s if self.raw_s else 0.0

    def probe_median_ms(self) -> float:
        ordered = sorted(self.cpu_probes)
        return ordered[len(ordered) // 2]
