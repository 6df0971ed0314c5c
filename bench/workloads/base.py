"""What a workload is, and the closed loop that measures one.

A workload owns its seeded inputs and turns them into *operations*: one
timed call into the stack, with untimed preparation before it and an
untimed check after it.  Operations belong to *classes* (for example cold
apply / replay / cache hit); one class is the workload's headline.  The
loop runs whole passes over the seeded operation list, one client, next
operation only after the previous one returned, until the time budget is
spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..clock import PROBE_INTERVAL_S, CalibratedClock
from ..env import Sandbox
from ..spans import NullTracer


@dataclass(frozen=True)
class OpClass:
    name: str
    #: an item's statistic.  "best": its best pass (deterministic CPU-bound
    #: work); "median" (a latency distribution); "mean" (a latency
    #: distribution with two modes of similar weight)
    stat: str
    headline: bool = False


@dataclass
class Op:
    cls: str
    item: str
    #: the timed call; receives the tracer, returns what ``check`` inspects
    run: Callable[[object], object]
    #: untimed; once per operation, before its first repetition
    prepare: Optional[Callable[[], None]] = None
    #: untimed; returns a failure message or None
    check: Optional[Callable[[object], Optional[str]]] = None
    reps: int = 1
    #: which probe of ``bench.clock`` rescales it
    resource: str = "cpu"


@dataclass
class Samples:
    """What one measured window produced."""

    #: calibrated latencies (see ``bench.clock``) and the raw wall-clock ones
    times_ns: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    raw_ns: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: calibrated seconds the measured operations took: the sum of their
    #: latencies for one closed-loop client, the wall clock of the blocks
    #: where clients run concurrently
    measured_s: float = 0.0
    #: ``measured_s`` of each whole pass over the operation list
    pass_s: List[float] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    def add(self, cls: str, item: str, ns: float, raw_ns: float) -> None:
        self.times_ns.setdefault((cls, item), []).append(ns)
        self.raw_ns.setdefault(cls, []).append(raw_ns)

    def fail(self, cls: str, item: str, why: str) -> None:
        self.failures.append(f"{cls}/{item}: {why}")

    def of_class(self, cls: str) -> Dict[str, List[float]]:
        return {item: v for (c, item), v in self.times_ns.items() if c == cls}


class Workload:
    """Base class; subclasses define the inputs and the operations."""

    name = ""
    classes: Tuple[OpClass, ...] = ()
    #: native workloads fail loudly without a C compiler
    needs_cc = False
    #: the service subprocess's memory counts toward peak_rss_mb
    has_server = False
    #: the probes of ``bench.clock`` its operations are rescaled by
    resources: Tuple[str, ...] = ("cpu",)
    #: untimed passes before the window, where the first call at the timed
    #: size still pays for something (first-touched temporaries)
    warm_passes = 0

    def __init__(self, seed: int, sandbox: Sandbox, clock: CalibratedClock, quick: bool = False):
        self.seed = seed
        self.sandbox = sandbox
        self.clock = clock
        self.quick = quick

    # -- lifecycle -----------------------------------------------------------

    def generate(self) -> None:
        """Make the seeded inputs (which kernels, which bindings, what data).
        Once per run, untimed: it is the benchmark's work, not the stack's."""

    def setup(self, tracer) -> None:
        """The stack's set-up before the timed window: parsing, scheduling,
        compilation, cache warm-up, server start.  Timed as ``setup_s``;
        called several times in a run, so it must start from nothing each
        time (``teardown`` runs in between)."""

    def teardown(self) -> None:
        """Release what ``setup`` acquired (processes, big arrays)."""

    def ops(self) -> List[Op]:
        """One pass of operations, in seeded order."""
        raise NotImplementedError

    def op_list(self) -> List[Tuple[str, str]]:
        """One pass as ``(class, item)`` data, from ``generate()`` alone:
        what ``same seed => same inputs`` is tested on."""
        raise NotImplementedError

    def verify(self, samples: Samples) -> None:
        """Checks that need the whole window (after it, untimed); failures
        go to ``samples.fail``."""

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Samples:
        """Run whole passes until the budget is spent (at least one)."""
        tracer = tracer or NullTracer()
        samples = Samples()
        pass_ops = self.ops()
        for _ in range(self.warm_passes):
            for op in pass_ops:
                if op.prepare is not None:
                    op.prepare()
                op.run(NullTracer())
        t_start = time.perf_counter()
        while True:
            before = samples.measured_s
            for op in pass_ops:
                self._run_op(op, samples, tracer)
            self._settle(samples, force=True)
            samples.pass_s.append(samples.measured_s - before)
            elapsed = time.perf_counter() - t_start
            # stop where another pass would overshoot by more than half of itself
            if elapsed + 0.5 * elapsed / samples.passes >= seconds:
                break
        return samples

    def _run_op(self, op: Op, samples: Samples, tracer) -> None:
        if op.prepare is not None:
            op.prepare()
        for _ in range(op.reps):
            samples.attempted += 1
            why = None
            with tracer.span(op.cls, "bench", item=op.item):
                t0 = time.perf_counter_ns()
                try:
                    result = op.run(tracer)
                except Exception as exc:  # noqa: BLE001 — a failed operation is a result
                    why = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter_ns() - t0
            if why is None and op.check is not None:
                why = op.check(result)
            if why is not None:
                samples.fail(op.cls, op.item, why)
            self.clock.lap((op.cls, op.item, why is None, dt), dt / 1e9, op.resource)
            self._settle(samples, force=dt >= PROBE_INTERVAL_S * 1e9)

    def _settle(self, samples: Samples, force: bool) -> None:
        for (cls, item, ok, raw_ns), calibrated_s in self.clock.settle(force):
            samples.measured_s += calibrated_s
            if ok:
                samples.add(cls, item, calibrated_s * 1e9, raw_ns)

    # -- reporting -----------------------------------------------------------

    def named_metrics(self, samples: Samples) -> Dict[str, float]:
        """This workload's own metrics by their per-layer names."""
        return {}

    def layer_probes(self, tracer) -> Dict[str, float]:
        """Traced run only: extra per-layer measurements taken after the
        window (disk tiers, build steps, tuner, thread scaling...)."""
        return {}

    def probe(self, tracer, name: str, layer: str, fn: Callable[[], object], **attrs):
        """For ``layer_probes``: call ``fn`` once inside a span, between two
        machine-speed probes; return ``(result, calibrated milliseconds)``."""
        with tracer.span(name, layer, **attrs):
            result, seconds = self.clock.time(fn)
        return result, seconds * 1e3
