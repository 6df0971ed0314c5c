"""Run one workload once and turn its samples into the named metrics.

The untraced run yields the end-to-end metrics; the traced run yields the
per-layer metrics.  Names, units and bounds live in ``BENCHMARK.json`` only:
this module reads them from there, so the file and the program cannot drift.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Optional

from . import env, spans, stats
from . import surface as R
from .clock import PROBES, CalibratedClock, on_cpus
from .workloads import WORKLOADS
from .workloads.base import Samples, Workload

#: The set-up is repeated and its median reported, so one slow compile does
#: not decide ``setup_s``.
SETUP_REPEATS = 3
#: A window with more than this share of its measured time in intervals
#: that straddled a machine-speed change is flagged ``noisy`` and, where the
#: caller allows re-runs, measured again.
NOISY_SHARE = 0.5


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no compiler for a native
    workload, a missing metric): reported loudly, exit code non-zero."""


def class_geomeans_ms(workload: Workload, samples: Samples) -> Dict[str, float]:
    """Per operation class: the geometric mean over its items of the item's
    statistic (``OpClass.stat``), in ms."""
    out = {}
    for oc in workload.classes:
        pick = {"best": min, "median": statistics.median, "mean": statistics.fmean}[oc.stat]
        items = [pick(v) / 1e6 for v in samples.of_class(oc.name).values()]
        if items:
            out[oc.name] = stats.geomean(items)
    return out


def headline_ms(workload: Workload, samples: Samples) -> float:
    (name,) = [oc.name for oc in workload.classes if oc.headline]
    per_class = class_geomeans_ms(workload, samples)
    if name not in per_class:
        raise BenchError(
            f"{workload.name}: no successful operation of its headline class {name!r}; "
            f"first failures: {samples.failures[:3]}"
        )
    return per_class[name]


def peak_rss_mb(workload: Workload) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.has_server:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(workload: Workload, samples: Samples, setup_s: float) -> Dict[str, float]:
    per_class = class_geomeans_ms(workload, samples)
    missing = [oc.name for oc in workload.classes if oc.name not in per_class]
    if missing or not samples.pass_s:
        raise BenchError(
            f"{workload.name}: no successful operation of class {missing}; "
            f"first failures: {samples.failures[:3]}"
        )
    return {
        "setup_s": setup_s,
        # a pass is one traversal of the seeded operation list (a block of
        # requests for the service); the median pass sheds a stray page-fault
        # storm or collection that a plain total would carry
        "ops_per_s": samples.attempted / samples.passes / statistics.median(samples.pass_s),
        "headline_ms": headline_ms(workload, samples),
        # every class weighs the same, however many items it has
        "op_geomean_ms": stats.geomean(list(per_class.values())),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def _window(workload: Workload, seconds: float, tracer) -> Samples:
    samples = workload.measure(seconds, tracer)
    workload.verify(samples)
    return samples


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    import_s: float = 0.0,
    quick: bool = False,
    spans_path: Optional[str] = None,
    noise_reruns: int = 0,
) -> dict:
    """One run of one workload; returns the result record (see ``cli``).
    ``import_s`` is the (calibrated) time the imports took, part of
    ``setup_s``; ``noise_reruns`` caps how often a noisy window is measured
    again."""
    spec = env.load_spec()
    env.scrub_environment()
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    sandbox = env.Sandbox()
    gen_cpu, service_cpu, affinity = env.pin_cpus()
    cls = WORKLOADS[name]
    probes = {resource: PROBES[resource] for resource in cls.resources}
    if cls.has_server and service_cpu is not None:
        # the work is split between two cores: probe both.  Of a warm hit's
        # 2.3 ms the client's encode, decode and socket calls are ~0.3 ms; of
        # a replay or a miss they are nothing
        probes = {
            r: on_cpus(probe, (gen_cpu, service_cpu), (0.15, 0.85)) for r, probe in probes.items()
        }
    clock = CalibratedClock(probes)
    workload = cls(seed, sandbox, clock, quick=quick)
    workload.cpus = (gen_cpu, service_cpu)
    tracer = spans.NullTracer()
    if trace:
        tracer = spans.Tracer(name)
        clock.on_settle = tracer.apply_scale
    try:
        if workload.needs_cc and R.find_cc() is None:
            raise BenchError(
                f"{name}: no C compiler on PATH; refusing to report NumPy times under a C name"
            )

        workload.generate()

        def one_setup():
            with tracer.span("setup", "bench"):
                workload.setup(tracer)

        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            if i:
                workload.teardown()
            setups.append(clock.time(one_setup)[1])
        setup_s = import_s + statistics.median(setups)

        reruns = 0
        while True:
            raw_before, drifting_before = clock.raw_s, clock.drifting_s
            if trace:
                # half the budget untraced, half traced: their ratio is what
                # the spans themselves cost
                plain = _window(workload, seconds / 2, spans.NullTracer())
                samples = _window(workload, seconds / 2, tracer)
            else:
                plain = None
                samples = _window(workload, seconds, tracer)
            drift = (clock.drifting_s - drifting_before) / max(clock.raw_s - raw_before, 1e-9)
            if drift <= NOISY_SHARE or reruns >= noise_reruns:
                break
            reruns += 1

        windows = [w for w in (plain, samples) if w is not None]
        failed = sum(len(w.failures) for w in windows)
        attempted = sum(w.attempted for w in windows)
        named = workload.named_metrics(samples)
        layer_self_ms = {}
        if trace:
            values = dict(named)
            with tracer.span("layer_probes", "bench"):
                values.update(workload.layer_probes(tracer))
            op_spans = _ops_only([s for s in tracer.spans if s["name"] not in ("setup", "layer_probes")])
            layer_self_ms = {k: v / 1e6 for k, v in spans.layer_self_ns(op_spans).items()}
            values.update(
                {
                    "bench.failed_share": failed / attempted,
                    "machine.calib_ms": clock.probe_median_ms(),
                    "machine.calib_drift": drift,
                    "trace.overhead_share": headline_ms(workload, samples) / headline_ms(workload, plain) - 1.0,
                    "trace.unattributed_share": spans.unattributed_share(op_spans) or 0.0,
                    "trace.spans": len(tracer.spans),
                }
            )
            listed = spec["per_layer"]
            unlisted = sorted(set(values) - {m["name"] for m in listed})
            if unlisted:
                raise BenchError(f"{name}: metrics not in BENCHMARK.json: {unlisted}")
            # a layer the workload does not touch reports 0: that it did no
            # work there is the finding
            values = {m["name"]: float(values.get(m["name"], 0.0)) for m in listed}
            if spans_path:
                tracer.write_jsonl(spans_path)
        else:
            listed = spec["end_to_end"]
            values = end_to_end(workload, samples, setup_s)
            lacking = sorted({m["name"] for m in listed} - set(values))
            if lacking:
                raise BenchError(f"{name}: metrics missing from the run: {lacking}")

        rows = {
            oc.name: {
                **stats.timing_row([t / 1e6 for v in samples.of_class(oc.name).values() for t in v]),
                "raw_p50": statistics.median(samples.raw_ns[oc.name]) / 1e6,
            }
            for oc in workload.classes
            if samples.of_class(oc.name)
        }
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": bool(trace),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failures": [f for w in windows for f in w.failures][:10],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
            },
            # the workload's own metrics by their per-layer names, from this
            # run's samples (the traced run reports them among ``metrics``)
            "named": {k: float(v) for k, v in named.items()},
            "class_rows_ms": rows,
            # traced run: where the operations' (raw) time went, by layer
            "layer_self_ms": layer_self_ms,
            "passes": samples.passes,
            "noisy": drift > NOISY_SHARE,
            "reruns": reruns,
            "calib_ms": clock.probe_median_ms(),
            "calib_drift": drift,
        }
    finally:
        try:
            workload.teardown()
        finally:
            sandbox.close()
            env.set_affinity(0, affinity)


def _ops_only(op_spans: List[dict]) -> List[dict]:
    """Spans of operations: those whose trace has an operation root."""
    roots = {s["trace_id"] for s in op_spans if s["parent_id"] is None}
    return [s for s in op_spans if s["trace_id"] in roots]
