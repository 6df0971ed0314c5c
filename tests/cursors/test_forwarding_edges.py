"""Forwarding cases the primitive contract table does not reach: argument
cursors, expressions beside an edited body, blocks and gaps cut by a
rewrite, and multi-step chains in which an early step invalidates the
cursor.  Each case pins where the cursor lands (or that it is invalidated),
as a fresh ``find`` would see it."""
from __future__ import annotations

import pytest

from repro import (
    InvalidCursorError, SchedulingError, call_eqv, delete_pass, divide_loop, fission, join_loops, lift_alloc,
    proc_from_source, remove_loop, reorder_stmts,
)

TWO_LOOPS = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        x[i] = 1.0\n"
    "        y[i] = 2.0\n"
    "    for j in seq(0, n):\n"
    "        x[j] = 3.0\n"
)


@pytest.fixture
def p():
    return proc_from_source(TWO_LOOPS)


def test_an_argument_cursor_forwards_to_the_same_argument(p):
    q = divide_loop(p, "i", 4, ["io", "ii"], tail="guard")
    arg = q.forward(p.get_arg("y"))
    assert arg == q.get_arg("y") and arg.name() == "y"
    with pytest.raises(InvalidCursorError, match="no argument named 'z'"):
        p.get_arg("z")


def test_a_loop_bound_is_untouched_by_an_edit_of_the_loop_body(p):
    hi = p.find_loop("i").hi()
    q = reorder_stmts(p, "x[i] = _")
    assert str(q.forward(hi)) == "n" and q.forward(hi)._path == hi._path


def test_an_expression_inside_a_call_call_eqv_replaces_keeps_its_place():
    g = proc_from_source(
        "def g(a: f32, x: f32[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        x[i] = a\n"
    )
    g2 = divide_loop(g, "i", 2, ["io", "ii"], perfect=True)
    h = proc_from_source("def h(a: f32, x: f32[4] @ DRAM):\n    g(a + 1.0, x)\n", {"g": g})
    arg = h.find("a + 1.0")
    q = call_eqv(h, g, g2)
    assert str(q.forward(arg)) == "a + 1.0" and q.forward(arg)._path == arg._path


def test_a_block_swapped_in_place_keeps_its_coordinates(p):
    both = p.find("x[i] = _").as_block().expand(0, 1)
    q = reorder_stmts(p, both)
    moved = q.forward(both)
    assert (moved._lo, moved._hi) == (0, 2) and [str(s) for s in moved] == ["y[i] = 2.0", "x[i] = 1.0"]


def test_a_block_fission_splits_is_invalidated(p):
    both = p.find("x[i] = _").as_block().expand(0, 1)
    q = fission(p, "x[i] = _")
    assert not q.forward(both).is_valid()


def test_a_gap_inside_a_loop_join_loops_absorbs_is_invalidated():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    assert n > 4\n"
        "    for i in seq(0, 4):\n"
        "        x[i] = 1.0\n"
        "    for i in seq(4, n):\n"
        "        x[i] = 1.0\n"
    )
    kept, absorbed = p.find("x[_] = _").before(), p.find("x[_] = _ #1").before()
    q = join_loops(p, "i", "i #1")
    assert "for i in seq(0, n)" in str(q)
    assert q.forward(kept).is_valid() and not q.forward(absorbed).is_valid()


def test_a_gap_in_a_later_statement_shifts_with_it(p):
    gap = p.find("x[j] = _").after()
    q = fission(p, "x[i] = _")  # one loop becomes two: the j loop moves down
    moved = q.forward(gap)
    assert moved.is_valid() and str(moved.stmt_before()) == "x[j] = 3.0"
    assert moved._owner_path == (("body", 2),)


def test_a_block_moved_by_lift_alloc_lands_at_its_destination():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        t: f32 @ DRAM\n"
        "        t = x[i]\n"
        "        x[i] = t\n"
    )
    block = p.find("t: _").as_block()
    q = lift_alloc(p, "t")
    moved = q.forward(block)
    assert [str(s) for s in moved] == ["t: f32 @ DRAM"] and moved._owner_path == ()


def test_a_cursor_invalidated_by_the_first_edit_of_a_primitive_stays_invalid():
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM):\n"
        "    pass\n"
        "    x[0] = 1.0\n"
        "    pass\n"
    )
    first = p.body()[0]
    q = delete_pass(p)
    assert str(q) == "def f(x: f32[4] @ DRAM):\n    x[0] = 1.0"
    assert not q.forward(first).is_valid()


def test_a_cursor_invalidated_early_in_a_chain_of_versions_stays_invalid():
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for k in seq(0, 2):\n"
        "        x[1] = 1.0\n"
        "        y[1] = 2.0\n"
    )
    loop = p.find_loop("k")
    q = remove_loop(p, loop)
    r = reorder_stmts(q, "x[1] = _")
    s = reorder_stmts(r, "y[1] = _")
    assert not s.forward(loop).is_valid()
    assert not s.as_successor_of(p).forward(loop).is_valid()


def test_forward_takes_only_cursors(p):
    q = divide_loop(p, "i", 4, ["io", "ii"], tail="guard")
    assert not q.forward(p.find("x[i] = _").before().stmt_before()).is_valid()
    with pytest.raises(TypeError, match="expected a Cursor, got str"):
        q.forward("x[i] = _")


def test_partial_eval_binds_positional_values_to_the_control_arguments(p):
    assert "for i in seq(0, 8)" in str(p.partial_eval(8))
    with pytest.raises(SchedulingError, match="partial_eval: 2 positional values but only 1 control arguments"):
        p.partial_eval(8, 9)
    with pytest.raises(SchedulingError, match="partial_eval: nothing to specialise"):
        p.partial_eval()


def test_a_block_before_the_rewritten_statement_keeps_its_place(p):
    first = p.find_loop("i").as_block()
    q = divide_loop(p, "j", 2, ["jo", "ji"], tail="guard")
    assert q.forward(first)._lo == 0 and str(q.forward(first)[0]).startswith("for i in seq(0, n):")


def test_a_block_of_deleted_statements_is_invalidated():
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    pass\n    x[0] = 1.0\n")
    block = p.body()[0].as_block()
    assert not delete_pass(p).forward(block).is_valid()


def test_an_empty_else_block_of_an_absorbed_loop_is_invalidated():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    assert n > 4\n"
        "    for i in seq(0, 4):\n"
        "        if n > 5:\n"
        "            x[i] = 1.0\n"
        "    for i in seq(4, n):\n"
        "        if n > 5:\n"
        "            x[i] = 1.0\n"
    )
    kept, absorbed = p.find("if _: _").orelse(), p.find("if _: _ #1").orelse()
    q = join_loops(p, "i", "i #1")
    assert q.forward(kept).is_valid() and not q.forward(absorbed).is_valid()


def test_a_block_inside_a_moved_statement_is_invalidated():
    # an edit session may move any block; the statements inside a moved one
    # are not followed into it (the primitives move allocations only)
    from repro.ir.edit import EditSession

    p = proc_from_source(TWO_LOOPS)
    inner = p.find_loop("j").body()
    session = EditSession(p)
    session.move(p.find_loop("j").as_block(), p.body()[0].before())
    q = session.finish()
    assert str(q.body()[0]).startswith("for j in seq(0, n):")
    assert not q.forward(inner).is_valid()
