"""What recording prunes, and why: a step whose result later code discarded
is not in the trace, a schedule that works on an equal-printing copy of its
input still records a trace that replays, and a step that changes nothing is
no new version."""
from __future__ import annotations

from repro import proc_from_source
from repro.api import lift_op, replay
from repro.ir.build import structurally_equal
from repro.primitives import divide_loop, set_precision

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[i] = x[i]\n"
)


def _eq(a, b) -> bool:
    return structurally_equal(a._root, b._root, match_sym_names=True)


def test_a_step_whose_result_was_discarded_is_not_recorded_and_the_trace_replays():
    p = proc_from_source(SRC)

    def lenient(q):
        try:  # plain Python, which the combinators' rollback never sees
            divide_loop(q, "i", 8, ["io", "ii"], tail="cut")
            raise LookupError("not the tiling wanted")
        except LookupError:
            pass
        return divide_loop(q, "i", 4, ["jo", "ji"], tail="cut")

    out, trace = lift_op(lenient, "lenient")().apply_traced(p)
    assert [(e.primitive, e.args[1]) for e in trace.applied()] == [("divide_loop", 4)]
    assert _eq(replay(trace.to_json(), p), out)


def test_a_schedule_of_an_equal_printing_global_records_a_trace_that_replays():
    p, published = proc_from_source(SRC), proc_from_source(SRC)
    # the shape of ``schedule_sgemm``: the input is ignored, a global that
    # prints like it is scheduled instead
    sched = lift_op(lambda q: divide_loop(published, "i", 8, ["io", "ii"], tail="cut"), "of_global")()
    out, trace = sched.apply_traced(p)
    assert len(trace.applied()) == 1
    assert _eq(replay(trace.to_json(), p), out)


def test_set_precision_to_the_precision_a_buffer_has_returns_its_input():
    p = proc_from_source(SRC)
    assert set_precision(p, "x", "f32") is p
    assert set_precision(p, "x", "f64") is not p
    q = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    t: f32[n] @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        t[i] = x[i]\n"
    )
    assert set_precision(q, "t", "f32") is q
    assert str(set_precision(q, "t", "f64")).count("f64") == 1
