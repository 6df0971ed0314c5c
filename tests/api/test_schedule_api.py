"""The first-class Schedule API: lifting, knobs, combinators, fluency."""

from __future__ import annotations

import pytest

from repro import Procedure, divide_loop, lift_scope, proc, unroll_loop
from repro.api import S, knob, lift_op, try_, try_op
from repro.api import seq as sq
from repro.api.knobs import KnobError
from repro.errors import InvalidCursorError, SchedulingError
from repro.ir.build import structurally_equal
from repro.lang import *  # noqa: F401,F403
from repro.stdlib import elevate


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
def _nest4(A: f32[4, 4] @ DRAM):
    for i in seq(0, 4):
        for j in seq(0, 4):
            A[i, j] = 2.0 * A[i, j]


TILE = sq(
    S.divide_loop("i", knob("ti", 8), ["io", "ii"], perfect=True),
    S.divide_loop("j", knob("tj", 8), ["jo", "ji"], perfect=True),
    S.lift_scope("jo"),
)


# ---------------------------------------------------------------------------
# lifting + fluency
# ---------------------------------------------------------------------------


def test_lifted_primitive_matches_direct_call():
    lifted = _gemv >> S.divide_loop("i", 8, ["io", "ii"], perfect=True)
    direct = divide_loop(_gemv, "i", 8, ["io", "ii"], perfect=True)
    assert _eq(lifted, direct)


def test_namespace_covers_registry_and_suggests_near_misses():
    assert "divide_loop" in dir(S)
    assert "tile2D" in dir(S)  # registered library op
    with pytest.raises(AttributeError, match="divide_loop"):
        S.divide_looop  # noqa: B018


def test_procedure_apply_and_rshift_agree():
    assert _eq(_gemv.apply(TILE), _gemv >> TILE)


def test_rshift_rejects_non_schedule_operands():
    with pytest.raises(TypeError):
        _gemv >> _nest4  # two Procedures must not recurse through .apply
    with pytest.raises(TypeError, match="expected a Schedule"):
        _gemv.apply(_nest4)


def test_seq_matches_hand_threading():
    p = divide_loop(_gemv, "i", 8, ["io", "ii"], perfect=True)
    p = divide_loop(p, "j", 8, ["jo", "ji"], perfect=True)
    p = lift_scope(p, "jo")
    assert _eq(_gemv >> TILE, p)


def test_lift_op_wraps_library_functions():
    from repro.stdlib.tiling import tile2D

    t = lift_op(tile2D)("i", "j", ["io", "ii"], ["jo", "ji"], 8, 8)
    assert _eq(_gemv >> t, _gemv >> TILE)


# ---------------------------------------------------------------------------
# knobs
# ---------------------------------------------------------------------------


def test_knob_defaults_and_overrides():
    assert _eq(TILE.apply(_gemv), TILE.apply(_gemv, ti=8, tj=8))
    small = TILE.apply(_gemv, {"ti": 4, "tj": 4})
    assert not _eq(small, TILE.apply(_gemv))
    # keyword spelling is equivalent to the dict spelling
    assert _eq(small, TILE.apply(_gemv, ti=4, tj=4))


def test_knob_sweep_produces_distinct_variants():
    variants = [TILE.apply(_gemv, ti=t, tj=t) for t in (2, 4, 8)]
    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            assert not _eq(variants[i], variants[j])


def test_knob_without_default_must_be_bound():
    s = S.divide_loop("i", knob("mystery"), ["io", "ii"], perfect=True)
    with pytest.raises(KnobError, match="mystery"):
        s.apply(_gemv)
    # knob-configuration mistakes must escape recovery combinators
    with pytest.raises(KnobError, match="mystery"):
        try_(s).apply(_gemv)
    assert _eq(s.apply(_gemv, mystery=8), _gemv >> S.divide_loop("i", 8, ["io", "ii"], perfect=True))


def test_knob_choices_validated():
    s = S.divide_loop("i", knob("t", 8, choices=(4, 8)), ["io", "ii"], perfect=True)
    with pytest.raises(KnobError, match="choices"):
        s.apply(_gemv, t=3)


def test_schedule_reports_its_knobs():
    names = {k.name for k in TILE.knobs()}
    assert names == {"ti", "tj"}
    assert TILE.knob_defaults() == {"ti": 8, "tj": 8}


def test_unknown_knob_names_are_rejected():
    with pytest.raises(KnobError, match=r"unknown knob.*tI.*did you mean"):
        TILE.apply(_gemv, tI=4)
    with pytest.raises(KnobError, match="no knobs"):
        S.divide_loop("i", 8, ["io", "ii"], perfect=True).apply(_gemv, tile=4)


def test_fingerprint_distinguishes_structure_and_knobs():
    assert TILE.fingerprint({"ti": 8}) == TILE.fingerprint({"ti": 8})
    assert TILE.fingerprint({"ti": 8}) != TILE.fingerprint({"ti": 4})
    other = sq(S.divide_loop("i", knob("ti", 8), ["io", "ii"], perfect=True))
    assert TILE.fingerprint() != other.fingerprint()


# ---------------------------------------------------------------------------
# try_ recovery semantics
# ---------------------------------------------------------------------------


def test_try_swallows_failure_and_returns_input():
    s = try_(S.divide_loop("i", 7, ["io", "ii"], perfect=True))
    out, trace = s.apply_traced(_gemv)
    assert out is _gemv
    kinds = [e.kind for e in trace.entries]
    assert "recovered" in kinds
    assert not trace.applied()


def test_try_rolls_back_partial_progress_of_a_seq():
    # first step of the branch succeeds, second fails: the branch result is
    # discarded and the trace must not list the partial work as applied
    branch = sq(
        S.divide_loop("i", 8, ["io", "ii"], perfect=True),
        S.divide_loop("j", 7, ["jo", "ji"], perfect=True),
    )
    out, trace = try_(branch).apply_traced(_gemv)
    assert out is _gemv
    assert not trace.applied()


# ---------------------------------------------------------------------------
# traversals: user code, lifted
# ---------------------------------------------------------------------------


def _at_innermost_loops(p, op, *args, **kwargs):
    """``op`` at every innermost loop, a refused site skipped: the traversal
    of ``docs/scheduling-api.md``, written with :mod:`repro.stdlib.elevate`."""
    for loop in [c for top in p.body() for c in elevate.innermost_loops(top)]:
        p = try_op(p, op, p.forward(loop), *args, **kwargs)
    return p


# the op and its arguments are the step's arguments, so they key the cache
at_innermost_loops = lift_op(_at_innermost_loops, "at_innermost_loops")


def test_innermost_loops_traversal():
    out = _nest4 >> at_innermost_loops(unroll_loop)
    assert _eq(out, unroll_loop(_nest4, "j"))


def test_traversal_skips_failing_sites():
    # dividing by 3 fails on the innermost loop (4 % 3 != 0, perfect): no change
    out, trace = at_innermost_loops(divide_loop, 3, ["a", "b"], perfect=True).apply_traced(_nest4)
    assert _eq(out, _nest4)
    assert not trace.applied()
    assert [e.kind for e in trace.entries] == ["recovered"]


# ---------------------------------------------------------------------------
# error-message satellites
# ---------------------------------------------------------------------------


def test_errors_name_the_failing_primitive():
    with pytest.raises(SchedulingError) as exc:
        divide_loop(_gemv, "i", 7, ["io", "ii"], perfect=True)
    assert exc.value.primitive == "divide_loop"
    assert str(exc.value).startswith("divide_loop")


def test_find_loop_suggests_near_misses():
    with pytest.raises(InvalidCursorError, match=r"no loop 'jo'; did you mean 'j'"):
        _gemv.find_loop("jo")


def test_find_loop_suggestion_lists_candidates():
    tiled = _gemv >> TILE
    with pytest.raises(InvalidCursorError, match="did you mean"):
        tiled.find_loop("jii")


def test_kind_mismatch_errors_carry_source_location():
    with pytest.raises(SchedulingError, match=r"at: "):
        lift_scope(_gemv, "y[_] += _")


def test_register_op_binds_a_name_once():
    from repro.api import register_op

    def first(proc):
        return proc

    def second(proc):
        return proc

    assert register_op(first, "bound_once") is first
    assert register_op(first, "bound_once") is first  # the same function again: a no-op
    with pytest.raises(ValueError, match="already registered"):
        register_op(second, "bound_once")
    assert S.bound_once().describe() == "bound_once()"
    assert S.bound_once().apply(_gemv) is _gemv
    from repro.api.schedule import LIBRARY_REGISTRY
    assert LIBRARY_REGISTRY["bound_once"] is first


def test_knobs_are_equal_by_name():
    assert knob("t", 8) == knob("t", 4) and knob("t", 8) != knob("u", 8)
    assert knob("t", 8) != "t"
    assert len({knob("t", 8), knob("t", 8), knob("u")}) == 2
