"""Trace serialization → replay round-trips, warnings, and the replay cache."""

from __future__ import annotations

import json

import pytest

from repro import Procedure, divide_loop, proc
from repro.api import (
    ReplayCache,
    ReplayError,
    S,
    Trace,
    knob,
    lift_op,
    replay,
)
from repro.api import seq as sq
from repro.blas import LEVEL1_KERNELS, level1_schedule, optimize_level_1
from repro.halide import blur_schedule, make_blur
from repro.ir.build import structurally_equal
from repro.ir.printing import procedure_digest
from repro.lang import *  # noqa: F401,F403
from repro.machines import AVX2


def _eq(a: Procedure, b: Procedure) -> bool:
    return structurally_equal(a._root, b._root, match_sym_names=True)


@proc
def _gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]


@proc
def _stages(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    tmp: f32[n] @ DRAM
    for i in seq(0, n):
        tmp[i] = 2.0 * x[i]
    for i in seq(0, n):
        y[i] = tmp[i] + 1.0


TILE = sq(
    S.divide_loop("i", knob("ti", 8), ["io", "ii"], perfect=True),
    S.divide_loop("j", knob("tj", 8), ["jo", "ji"], perfect=True),
    S.lift_scope("jo"),
)


# ---------------------------------------------------------------------------
# trace structure + JSON round-trip
# ---------------------------------------------------------------------------


def test_trace_records_resolved_args_and_edits():
    _, trace = TILE.apply_traced(_gemv, ti=4)
    assert [e.primitive for e in trace.applied()] == ["divide_loop", "divide_loop", "lift_scope"]
    assert trace.applied()[0].args[1] == 4  # knob resolved to its bound value
    assert trace.total_edits() >= 3
    assert trace.replayable()
    assert trace.summary() == {"divide_loop": 2, "lift_scope": 1}


def test_trace_json_round_trip_preserves_everything():
    _, trace = TILE.apply_traced(_gemv)
    js = trace.to_json()
    json.loads(js)  # valid JSON
    back = Trace.from_json(js)
    assert back.fingerprint == trace.fingerprint
    assert back.initial == trace.initial and back.final == trace.final
    assert [e.to_dict() for e in back.entries] == [e.to_dict() for e in trace.entries]


def test_simple_replay_round_trip():
    p1, trace = TILE.apply_traced(_gemv)
    p2 = replay(Trace.from_json(trace.to_json()), _gemv)
    assert _eq(p1, p2)


def test_replay_rejects_mismatched_starting_proc():
    _, trace = TILE.apply_traced(_gemv)
    with pytest.raises(ReplayError, match="not structurally identical"):
        replay(trace, _stages)


def test_replay_unknown_primitive_raises():
    _, trace = TILE.apply_traced(_gemv)
    trace.applied()[0].primitive = "no_such_primitive"
    with pytest.raises(ReplayError, match="no_such_primitive"):
        replay(trace, _gemv)


def test_replay_of_a_keyword_the_primitive_no_longer_takes_is_a_replay_error():
    """A trace recorded while the primitives still took ``unsafe_disable_check``
    names the step instead of leaking the call's ``TypeError``."""
    _, trace = TILE.apply_traced(_gemv)
    trace.applied()[0].kwargs["unsafe_disable_check"] = True
    with pytest.raises(ReplayError, match=r"step 0 \(.*unsafe_disable_check"):
        replay(trace, _gemv)


# ---------------------------------------------------------------------------
# the acceptance pipelines: blur + BLAS
# ---------------------------------------------------------------------------


def test_blur_trace_replays_to_structurally_equal_proc():
    sched = blur_schedule()
    p1, trace = sched.apply_traced(make_blur())
    assert trace.replayable()
    p2 = replay(Trace.from_json(trace.to_json()), make_blur())
    assert _eq(p1, p2)


def test_a_trace_without_state_hashes_is_rejected():
    _, trace = blur_schedule().apply_traced(make_blur())
    d = trace.to_dict()
    d["final"] = None
    with pytest.raises(ReplayError, match="trace carries no initial or final digest"):
        replay(d, make_blur())


def test_level1_trace_replays_and_prunes_discarded_work():
    sched = level1_schedule(machine=AVX2)
    p1, trace = sched.apply_traced(LEVEL1_KERNELS["saxpy"])
    assert _eq(p1, optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2))
    p2 = replay(Trace.from_json(trace.to_json()), LEVEL1_KERNELS["saxpy"])
    assert _eq(p1, p2)


def test_level1_knob_sweep_changes_interleave():
    sched = level1_schedule(machine=AVX2)
    a = sched.apply(LEVEL1_KERNELS["sdot"])
    b = sched.apply(LEVEL1_KERNELS["sdot"], interleave=4)
    assert not _eq(a, b)


# ---------------------------------------------------------------------------
# forwarded-cursor invalidation warnings
# ---------------------------------------------------------------------------


def test_trace_surfaces_cursor_invalidations_as_warnings():
    def grab_then_invalidate(p):
        # hold a cursor to an inserted pass, delete it, then forward the
        # stale cursor — library code that silently drops the invalidation
        # must still leave a structured warning in the trace
        from repro.primitives import delete_pass, insert_pass

        p = insert_pass(p, p.find_loop("i").body().before())
        c = p.find_loop("i").body()[0]
        p = delete_pass(p)
        fwd = p.forward(c)  # invalidated: records a warning
        assert not fwd.is_valid()
        return p

    sched = lift_op(grab_then_invalidate)()
    _, trace = sched.apply_traced(_stages)
    warns = trace.warnings()
    assert warns, "expected a cursor-invalidated warning in the trace"
    assert warns[0].detail["event"] == "cursor-invalidated"
    assert warns[0].detail["proc"] == "_stages"


# ---------------------------------------------------------------------------
# replay cache
# ---------------------------------------------------------------------------


def test_cache_hits_on_identical_proc_and_knobs():
    cache = ReplayCache()
    a = TILE.apply(_gemv, cache=cache)
    b = TILE.apply(_gemv, cache=cache)
    assert a is b
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


def test_cache_distinguishes_knob_values():
    cache = ReplayCache()
    TILE.apply(_gemv, cache=cache)
    TILE.apply(_gemv, {"ti": 4}, cache=cache)
    assert cache.hits == 0 and cache.misses == 2 and len(cache) == 2


def test_cache_hit_survives_edit_epochs_and_fresh_structural_twins():
    cache = ReplayCache()
    TILE.apply(_gemv, cache=cache)
    # bump the global edit epoch with unrelated scheduling work
    divide_loop(_stages, "i", 2, ["io", "ii"], tail="cut")
    # a freshly parsed, structurally identical gemv still hits
    from repro.frontend.decorators import proc_from_source

    twin = proc_from_source(
        """
def _gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]
"""
    )
    out = TILE.apply(twin, cache=cache)
    assert cache.hits == 1
    assert _eq(out, TILE.apply(_gemv))


def test_cache_returns_trace_alongside_proc():
    cache = ReplayCache()
    p1, t1 = TILE.apply_traced(_gemv, cache=cache)
    p2, t2 = TILE.apply_traced(_gemv, cache=cache)
    assert p1 is p2 and t1 is t2
    assert t2.final == procedure_digest(p2._root)
