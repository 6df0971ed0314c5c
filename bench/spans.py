"""Benchmark-side spans around the calls into each layer.

A traced run wraps every call into a layer's public function in a span
``{trace_id, span_id, parent_id, name, layer, workload, start_ns, end_ns,
attrs}``.  One operation is one ``trace_id``.  Spans stay in memory and are
written as JSONL when the run ends.  A span's self time is its duration
minus the part its children cover.  ``start_ns``/``end_ns`` are raw clock
readings; ``scale`` is the machine-speed factor of the interval the span
ended in (see ``bench.clock``), and a span's calibrated duration is its raw
duration times ``scale``.  Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: dict):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        stack = self.tracer._stack()
        rec = self.rec
        if stack:
            rec["trace_id"] = stack[-1]["trace_id"]
            rec["parent_id"] = stack[-1]["span_id"]
        else:
            rec["trace_id"] = next(self.tracer._trace_ids)
            rec["parent_id"] = None
        stack.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        return rec

    def __exit__(self, *exc) -> bool:
        self.rec["end_ns"] = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.rec)  # list.append is atomic under the GIL
        return False


class Tracer:
    """Collects spans; a span opened with no span active starts a new trace
    (one operation).  Each thread nests independently."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._scaled = 0  # spans[:_scaled] already carry their scale

    def apply_scale(self, scale: float) -> None:
        """Stamp the spans that ended since the last call."""
        for rec in self.spans[self._scaled :]:
            rec["scale"] = scale
        self._scaled = len(self.spans)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, **attrs) -> _Span:
        return _Span(
            self,
            {
                "trace_id": None,
                "span_id": next(self._span_ids),
                "parent_id": None,
                "name": name,
                "layer": layer,
                "workload": self.workload,
                "start_ns": 0,
                "end_ns": 0,
                "attrs": attrs,
            },
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True, default=repr) + "\n")


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """The untraced run: ``span`` costs one attribute lookup and no clock."""

    enabled = False
    spans: List[dict] = []
    _null = _NullSpan()

    def span(self, name: str, layer: str, **attrs) -> _NullSpan:
        return self._null


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def calibrated_ms(span: dict) -> float:
    return duration_ns(span) * span.get("scale", 1.0) / 1e6


def median_ms(spans: Iterable[dict], name: str, **attrs) -> Optional[float]:
    """Median calibrated duration of the spans called ``name`` whose attrs
    match; None when there is none."""
    mine = [
        calibrated_ms(s)
        for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    ]
    return statistics.median(mine) if mine else None


def self_times(spans: Iterable[dict]) -> Dict[int, int]:
    """``span_id -> self time``: the span's duration minus its direct
    children's durations (children of one span never overlap: a thread
    nests them)."""
    spans = list(spans)
    out = {s["span_id"]: duration_ns(s) for s in spans}
    for s in spans:
        if s["parent_id"] is not None and s["parent_id"] in out:
            out[s["parent_id"]] -= duration_ns(s)
    return out


def layer_self_ns(spans: Iterable[dict]) -> Dict[str, int]:
    """Total self time per layer."""
    spans = list(spans)
    selfs = self_times(spans)
    out: Dict[str, int] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0) + selfs[s["span_id"]]
    return out


def unattributed_share(spans: Iterable[dict], layer: str = "bench") -> Optional[float]:
    """Share of traced operation time that no layer span covers: the self
    time of the benchmark's own root spans over their duration."""
    spans = list(spans)
    roots = [s for s in spans if s["parent_id"] is None and s["layer"] == layer]
    total = sum(duration_ns(s) for s in roots)
    if not total:
        return None
    selfs = self_times(spans)
    return sum(selfs[s["span_id"]] for s in roots) / total
