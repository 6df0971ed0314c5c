"""Cursor navigation at the edges of a statement list: an empty ``else``
block, the gaps at either end of a body, a scalar allocation's shape and an
invalid cursor's private attributes."""
from __future__ import annotations

import pytest

from repro import InvalidCursorError, proc_from_source

SRC = (
    "def f(n: size, x: f32[n] @ DRAM):\n"
    "    t: f32 @ DRAM\n"
    "    if n > 2:\n"
    "        x[0] = 1.0\n"
    "    t = x[1]\n"
)


@pytest.fixture
def p():
    return proc_from_source(SRC)


def test_an_if_without_else_has_an_empty_orelse_block_whose_gap_has_no_anchor(p):
    orelse = p.find("if _: _").orelse()
    assert len(orelse) == 0
    gap = orelse.before()
    assert not gap.anchor().is_valid()
    assert not gap.stmt_before().is_valid() and not gap.stmt_after().is_valid()


def test_the_gaps_at_either_end_of_a_body(p):
    first, last = p.body()[0].before(), p.body()[2].after()
    assert not first.stmt_before().is_valid() and str(first.stmt_after()) == "t: f32 @ DRAM"
    assert not last.stmt_after().is_valid() and str(last.stmt_before()) == "t = x[1]"
    assert str(last.anchor()) == "t = x[1]"  # past the end: the last statement


def test_a_scalar_allocation_has_no_shape(p):
    assert p.find("t: _").shape() == []


def test_an_invalid_cursor_refuses_navigation_and_has_no_private_attributes(p):
    gap = p.body()[0].before()
    bad = gap.stmt_before()
    with pytest.raises(InvalidCursorError, match="operation on an invalid cursor"):
        bad.parent()
    with pytest.raises(AttributeError, match="_node"):
        bad._node
