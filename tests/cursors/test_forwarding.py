"""Cursor forwarding across scheduling operations (the branching time model)."""
from __future__ import annotations

import pytest

from repro import InvalidCursorError, divide_loop, fission, lift_scope, reorder_stmts, unroll_loop
from repro.cursors import ForCursor, InvalidCursor


def test_forward_untouched_cursor(gemv):
    # a cursor to the j loop survives dividing the i loop (Section 5.1's example)
    j = gemv.find_loop("j")
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    fwd = g.forward(j)
    assert isinstance(fwd, ForCursor) and fwd.name() == "j"


def test_forward_into_divided_loop(gemv):
    red = gemv.find("y[_] += _")
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    fwd = g.forward(red)
    assert fwd.is_valid()
    assert "y[" in str(fwd)


def test_forward_through_two_steps(gemv):
    red = gemv.find("y[_] += _")
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    g = divide_loop(g, "j", 8, ["jo", "ji"], perfect=True)
    g = lift_scope(g, "jo")
    fwd = g.forward(red)
    assert fwd.is_valid() and "y[" in str(fwd)


def test_forward_same_proc_is_identity(gemv):
    c = gemv.find_loop("i")
    assert gemv.forward(c) == c


def test_a_schedule_application_is_one_step_of_the_lineage(gemv):
    """``Schedule.apply`` hands back the direct successor of its input: old
    cursors forward exactly as through the primitive-by-primitive chain, and
    the versions in between are released with their trees."""
    import gc
    import weakref

    from repro.api import S

    cursors = [gemv.find("y[_] += _"), gemv.find_loop("j"), gemv.find_loop("i").body()]
    tile = (
        S.divide_loop("i", 8, ["io", "ii"], perfect=True)
        >> S.divide_loop("j", 8, ["jo", "ji"], perfect=True)
        >> S.lift_scope("jo")
    )
    out = tile.apply(gemv)
    step1 = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    by_hand = lift_scope(divide_loop(step1, "j", 8, ["jo", "ji"], perfect=True), "jo")
    assert len(by_hand._lineage()) == 4 and out._lineage() == [out, gemv]
    assert str(out) == str(by_hand)
    for c in cursors:
        assert out.forward(c)._descriptor() == by_hand.forward(c)._descriptor()

    # by hand, a version stays alive behind its successors; as one step it does not
    held, tree = weakref.ref(step1), weakref.ref(step1._root.body[0])
    squashed = by_hand.as_successor_of(gemv)
    del step1, by_hand
    gc.collect()
    assert held() is None and tree() is None
    assert squashed.forward(cursors[1]).name() == "jo"  # the divided loop, as by hand


def test_forward_requires_lineage(gemv, axpy):
    c = gemv.find_loop("i")
    with pytest.raises(InvalidCursorError):
        axpy.forward(c)


def test_forward_after_reorder_stmts():
    from repro import proc_from_source

    p0 = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "    for i in seq(0, n):\n"
        "        y[i] = 2.0\n"
    )
    first, second = p0.find("for i in _: _", many=True)
    p = reorder_stmts(p0, first, second)
    fwd_first, fwd_second = p.forward(first), p.forward(second)
    assert fwd_first.is_valid() and fwd_second.is_valid()
    # the cursors track the statements across the swap
    assert "x[i] = 1.0" in str(fwd_first)
    assert "y[i] = 2.0" in str(fwd_second)


def test_forward_after_fission(copy2d):
    inner = copy2d.find_loop("j")
    stmt = inner.body()[0]
    p = divide_loop(copy2d, "j", 4, ["jo", "ji"], tail="guard")
    fwd = p.forward(stmt)
    assert fwd.is_valid()


def test_invalidated_by_unroll(gemv):
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    ii = g.find_loop("ii")
    g2 = unroll_loop(divide_loop(g, "ii", 8, ["iio", "iii"], perfect=True), "iii")
    # forwarding still produces *some* valid reference (heuristic forwarding)
    fwd = g2.forward(ii)
    assert fwd is not None
