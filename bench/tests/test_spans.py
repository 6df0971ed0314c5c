"""Span records and self-time arithmetic."""

import json

from bench import spans


def _span(span_id, parent_id, start, end, layer="api", trace_id=1, name="x"):
    return {"trace_id": trace_id, "span_id": span_id, "parent_id": parent_id, "name": name,
            "layer": layer, "workload": "w", "start_ns": start, "end_ns": end, "attrs": {}}


def test_self_time_is_duration_minus_children():
    tree = [
        _span(1, None, 0, 100, layer="bench"),
        _span(2, 1, 10, 40),
        _span(3, 1, 50, 90, layer="backend"),
        _span(4, 3, 60, 70, layer="guard"),
    ]
    assert spans.self_times(tree) == {1: 30, 2: 30, 3: 30, 4: 10}
    assert spans.layer_self_ns(tree) == {"bench": 30, "api": 30, "backend": 30, "guard": 10}
    assert spans.unattributed_share(tree) == 0.30


def test_tracer_nests_per_operation_and_stamps_scale(tmp_path):
    tracer = spans.Tracer("w")
    for _ in range(2):
        with tracer.span("op", "bench", item="k"):
            with tracer.span("inner", "api"):
                pass
    tracer.apply_scale(0.5)
    with tracer.span("late", "bench"):
        pass
    inner, op = tracer.spans[0], tracer.spans[1]
    assert inner["parent_id"] == op["span_id"] and op["parent_id"] is None
    assert inner["trace_id"] == op["trace_id"] != tracer.spans[3]["trace_id"]
    assert [s.get("scale") for s in tracer.spans] == [0.5, 0.5, 0.5, 0.5, None]
    assert spans.calibrated_ms(op) == spans.duration_ns(op) * 0.5 / 1e6
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 5
    assert set(rows[0]) >= {"trace_id", "span_id", "parent_id", "name", "layer", "workload",
                            "start_ns", "end_ns", "attrs"}


def test_null_tracer_records_nothing():
    tracer = spans.NullTracer()
    with tracer.span("op", "bench"):
        pass
    assert tracer.spans == [] and not tracer.enabled
