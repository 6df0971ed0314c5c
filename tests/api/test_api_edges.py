"""Schedule values, knobs and the replay cache on their rarer inputs: a
lifted function whose code holds a set, a callable with no code or no name,
a function lifted before a name it closes over is bound, composition with
something that is not a schedule, an op returning a tuple or a non-procedure,
and disk records the cache must not replay."""
from __future__ import annotations

import functools
import os

import pytest

from repro import SchedulingError, divide_loop, proc_from_source
from repro.api import Knob, ReplayCache, S, lift_op, register_op
from repro.api.cache import _DISK_VERSION
from repro.persist import write_record

SRC = "def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 1.0\n"


@pytest.fixture
def p():
    return proc_from_source(SRC)


def test_a_knob_needs_a_name():
    with pytest.raises(TypeError, match="knob name must be a non-empty string"):
        Knob("")


def test_fingerprints_read_set_constants_and_odd_callables():
    def in_set(proc, k):
        return divide_loop(proc, "i", 4 if k in {1, 2} else 8, ["io", "ii"], tail="guard")

    def in_other_set(proc, k):
        return divide_loop(proc, "i", 4 if k in {1, 3} else 8, ["io", "ii"], tail="guard")

    a, b = lift_op(in_set)(1), lift_op(in_other_set)(1)
    assert a.fingerprint() != b.fingerprint()
    nameless = functools.partial(divide_loop)  # no __qualname__: its repr, minus addresses
    c, d = lift_op(in_set)(nameless), lift_op(in_set)(functools.partial(divide_loop))
    assert c.fingerprint() == d.fingerprint()
    assert lift_op(in_set)(len).fingerprint() != lift_op(in_set)(abs).fingerprint()  # builtins: by name


def test_a_closure_cell_bound_after_lifting_fingerprints_as_empty():
    def factory(bind_first):
        if bind_first:
            later = 4

        def op(proc):
            return divide_loop(proc, "i", later, ["io", "ii"], tail="guard")

        fp = lift_op(op)().fingerprint()
        later = 4
        return fp, lift_op(op)().apply(proc_from_source(SRC))

    (empty, out), (bound, _) = factory(False), factory(True)
    assert empty != bound and "for io in seq(0, (n + 3) / 4)" in str(out)


def test_composition_takes_schedules_and_procedures_only(p):
    step = S.divide_loop("i", 4, ["io", "ii"], tail="guard")
    with pytest.raises(TypeError):
        step >> 3
    with pytest.raises(TypeError):
        3 >> step
    assert str(p >> step) == str(step.apply(p))
    with pytest.raises(TypeError, match="Schedule.apply: expected a Procedure, got str"):
        step.apply("f")


def test_a_lifted_op_may_return_a_tuple_but_must_return_a_procedure(p):
    def with_cursor(proc):
        q = divide_loop(proc, "i", 4, ["io", "ii"], tail="guard")
        return q, q.find_loop("ii")

    def nothing(proc):
        return None

    assert "for ii in seq(0, 4)" in str(lift_op(with_cursor)().apply(p))
    with pytest.raises(SchedulingError, match="nothing: lifted operation did not return a Procedure"):
        lift_op(nothing)().apply(p)


def test_register_op_refuses_a_primitive_name():
    with pytest.raises(ValueError, match="register_op: 'divide_loop' is already a scheduling primitive"):
        register_op(lambda proc: proc, "divide_loop")


def _record(cache, p, step, payload):
    write_record(cache.record_path(p, step.fingerprint()), payload, fsync=False)


@pytest.mark.parametrize("payload, errors", [
    ({"version": _DISK_VERSION + 1, "trace": {}}, 0),   # another on-disk format
    ({"version": _DISK_VERSION, "trace": None}, 0),     # no trace in it
    ({"version": _DISK_VERSION, "trace": {"entries": [{"kind": "primitive", "primitive": "no_such_op"}]}}, 1),
])
def test_a_disk_record_that_cannot_replay_is_a_miss(p, tmp_path, payload, errors):
    cache, step = ReplayCache(path=str(tmp_path)), S.divide_loop("i", 4, ["io", "ii"], tail="guard")
    _record(cache, p, step, payload)
    out = step.apply(p, cache=cache)
    s = cache.stats()
    assert s["disk_hits"] == 0 and s["misses"] == 1 and s["disk_errors"] == errors
    assert "for io in seq(0, (n + 3) / 4)" in str(out)


def test_a_disk_put_without_a_trace_or_space_writes_nothing(p, tmp_path, monkeypatch):
    cache = ReplayCache(path=str(tmp_path))
    cache.put(p, "fp", p, None)
    assert cache.stats()["disk_writes"] == 0 and not os.listdir(tmp_path)

    def full(*_a, **_kw):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.api.cache.write_record", full)
    S.divide_loop("i", 4, ["io", "ii"], tail="guard").apply(p, cache=cache)
    assert cache.stats()["disk_errors"] == 1 and cache.stats()["disk_writes"] == 0
