"""``replay`` and the argument codec refuse what they cannot reproduce, each
with its own message: an opaque argument, a step that fails, a final state
that differs (a tampered final digest, a step that made another procedure, a
trace whose steps no path of versions linked), an unregistered procedure, an
invalidated cursor and an unknown descriptor."""
from __future__ import annotations

import pytest

from repro import proc_from_source, remove_loop
from repro.api import ReplayError, S, TraceRecorder, lift_op, replay
from repro.api.serialize import decode_arg, encode_arg, is_replayable
from repro.api.trace import TraceEntry
from repro.ir import nodes as N
from repro.primitives import _base, divide_loop

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[i] = x[i]\n"
)


@pytest.fixture
def p():
    return proc_from_source(SRC)


@pytest.fixture
def recorded(p):
    sched = S.divide_loop("i", 8, ["io", "ii"], tail="cut") >> S.divide_loop("io", 2, ["ioo", "ioi"], tail="cut")
    _, trace = sched.apply_traced(p)
    return trace.to_dict()


def _steps(trace):
    return [e for e in trace["entries"] if e["kind"] == "primitive"]


def test_the_recorded_trace_replays(p, recorded):
    assert replay(recorded, p) is not None


FINAL = "replay finished but did not reproduce the recorded final state"


def test_a_tampered_final_state_is_refused(p, recorded):
    recorded["final"] = "0" * 16
    with pytest.raises(ReplayError, match=FINAL):
        replay(recorded, p)


def test_steps_that_no_path_of_versions_links_are_kept_and_refused(p):
    other = proc_from_source(SRC.replace("y[i] = x[i]", "y[i] = 2.0 * x[i]"))
    # the schedule's result does not descend from its input, nor from anything
    # that prints like it: recording keeps every step, and replay, which runs
    # them on the input, does not reach the recorded final state
    _, trace = lift_op(lambda q: divide_loop(other, "i", 8, ["io", "ii"], tail="cut"), "elsewhere")().apply_traced(p)
    assert [e.primitive for e in trace.applied()] == ["divide_loop"]
    with pytest.raises(ReplayError, match=FINAL):
        replay(trace.to_json(), p)


def test_an_opaque_argument_is_refused(p, recorded):
    _steps(recorded)[0]["args"][0] = {"$opaque": "<object>"}
    with pytest.raises(ReplayError, match=r"step 0 \(divide_loop\) has non-serializable arguments and cannot replay"):
        replay(recorded, p)


def test_a_diverged_state_is_refused(p, recorded):
    _steps(recorded)[0]["args"][1] = 4  # the first step now makes another procedure
    with pytest.raises(ReplayError, match=FINAL):
        replay(recorded, p)


def test_a_step_that_fails_is_refused(p, recorded):
    _steps(recorded)[0]["args"][0] = "k"
    with pytest.raises(ReplayError, match=r"step 0 \(divide_loop\) failed during replay: divide_loop: pattern 'k' did not match"):
        replay(recorded, p)


def test_a_final_state_that_differs_is_refused(p):
    _, trace = S.divide_loop("i", 8, ["io", "ii"], tail="cut").apply_traced(p)
    tampered = trace.to_dict()
    _steps(tampered)[0]["args"][1] = 4
    with pytest.raises(ReplayError, match=FINAL):
        replay(tampered, p)


def test_a_non_primitive_entry_reprs_by_its_detail():
    entry = TraceEntry(kind="recovered", error="divide_loop: no", detail={"note": "try_"})
    assert repr(entry) == "<TraceEntry recovered: {'note': 'try_'}>"
    assert repr(TraceEntry(kind="warning", error="boom")) == "<TraceEntry warning: boom>"


def test_a_nested_primitive_is_recorded_as_its_outermost_call(monkeypatch, p):
    monkeypatch.setattr(_base, "PRIMITIVE_REGISTRY", {})

    @_base.scheduling_primitive
    def tile_twice(proc):
        q = divide_loop(proc, "i", 8, ["io", "ii"], tail="cut")
        return divide_loop(q, "io", 2, ["ioo", "ioi"], tail="cut")

    rec = TraceRecorder()
    with rec:
        tile_twice(p)
    assert [e.primitive for e in rec.trace.entries] == ["tile_twice"]


# -- the argument codec ------------------------------------------------------


def test_encoding_answers_every_value(p):
    assert encode_arg({"a": 1, 2: [3]}) == {"a": 1, "2": [3]}
    assert encode_arg(p._root.args[0].name) == {"$expr": "n"}
    assert encode_arg(N.Pass()) == {"$opaque": "Pass()"}
    assert encode_arg(p.body()[0].before().stmt_before()) == {"$cursor": None}
    assert encode_arg(p.get_arg("x")) == {"$cursor": {"kind": "arg", "idx": 1}}
    # a cursor of an unrelated procedure, and one forwarded to nothing
    assert encode_arg(proc_from_source(SRC).find_loop("i"), p) == {"$cursor": None}
    r = proc_from_source(
        "def h(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for k in seq(0, 2):\n"
        "        x[1] = 1.0\n"
        "        y[1] = 2.0\n"
    )
    k = r.find_loop("k")
    assert encode_arg(k, remove_loop(r, k)) == {"$cursor": None}
    assert not is_replayable({"$cursor": None}) and not is_replayable([{"$opaque": "x"}])


def test_decoding_refuses_what_it_cannot_rebuild(p):
    assert decode_arg({"$cursor": {"kind": "arg", "idx": 2}}, p) == p.get_arg("y")
    assert decode_arg({"$knob": {"name": "w", "default": 8}}, p).name == "w"
    assert decode_arg({"a": [1, {"b": 2}]}, p) == {"a": [1, {"b": 2}]}
    with pytest.raises(ReplayError, match="trace entry references an invalidated cursor"):
        decode_arg({"$cursor": None}, p)
    with pytest.raises(ReplayError, match="trace entry has an opaque argument: <thing>"):
        decode_arg({"$opaque": "<thing>"}, p)
    with pytest.raises(ReplayError, match=r"cannot decode trace argument \(1, 2\)"):
        decode_arg((1, 2), p)
    with pytest.raises(ReplayError, match="unknown cursor descriptor kind 'loop'"):
        decode_arg({"$cursor": {"kind": "loop"}}, p)
    with pytest.raises(ReplayError, match=r"trace references procedure 'no_such_proc' \(digest 00ff\) which is not"):
        decode_arg({"$proc": "00ff", "name": "no_such_proc"}, p)
