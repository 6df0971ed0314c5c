"""The forwarding contract, one row per primitive (after SYS_ATL's
``tests/test_forwarding.py``): a cursor into a primitive's input either
forwards to the node a fresh ``find`` locates in its output, or is
invalidated -- as the row states.

Each row names a small procedure, the primitive call, and ``expect``: input
pattern -> output pattern (``None``: invalidated).  Patterns take ``#k`` for
the k-th match.  On top of the named cursors, every statement, block, gap and
expression cursor of the input must forward to a location that exists in the
output, of the same kind, or be invalidated."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import pytest

from repro import (
    add_loop, commute_expr, cut_loop, divide_with_recompute, fission, fuse, lift_scope, mult_loops,
    proc_from_source, specialize,
)
from repro.cursors import BlockCursor, ExprCursor, GapCursor, InvalidCursor, StmtCursor
from repro.cursors.cursor import make_expr_cursor, make_stmt_cursor
from repro.ir import nodes as N
from repro.ir.build import get_node, stmt_list_field_paths, walk


@dataclass
class Row:
    src: str
    op: Callable
    expect: Dict[str, Optional[str]]


ROWS = {
    "specialize": Row(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n",
        lambda p: specialize(p, p.find_loop("i"), "n > 4"),
        # into the first specialised copy
        {"for i in _: _": "for i in _: _ #0", "x[_] = _": "x[_] = _ #0"},
    ),
    "fuse (loops)": Row(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "    for j in seq(0, n):\n"
        "        y[j] = 2.0\n",
        lambda p: fuse(p, p.find_loop("i"), p.find_loop("j")),
        {"for i in _: _": "for i in _: _", "for j in _: _": "for i in _: _",
         "x[_] = _": "x[_] = _", "y[_] = _": "y[_] = _"},
    ),
    "fuse (ifs)": Row(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    if n > 4:\n"
        "        x[0] = 1.0\n"
        "    else:\n"
        "        x[2] = 3.0\n"
        "    if n > 4:\n"
        "        x[1] = 2.0\n"
        "    else:\n"
        "        x[3] = 4.0\n",
        lambda p: fuse(p, p.find("if _: _ #0"), p.find("if _: _ #1")),
        {"if _: _ #0": "if _: _", "if _: _ #1": "if _: _", "x[0] = _": "x[0] = _", "x[1] = _": "x[1] = _",
         "x[2] = _": "x[2] = _", "x[3] = _": "x[3] = _"},
    ),
    "lift_scope (if out of a loop)": Row(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        if n > 4:\n"
        "            x[i] = 1.0\n"
        "        else:\n"
        "            x[i] = 2.0\n",
        lambda p: lift_scope(p, p.find("if _: _")),
        {"for i in _: _": "for i in _: _ #0", "if _: _": "if _: _",
         "x[_] = 1.0": "x[_] = 1.0", "x[_] = 2.0": "x[_] = 2.0"},
    ),
    "lift_scope (if out of an if)": Row(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    if n > 4:\n"
        "        if n > 8:\n"
        "            x[0] = 1.0\n"
        "        else:\n"
        "            x[0] = 2.0\n"
        "    else:\n"
        "        x[0] = 3.0\n",
        lambda p: lift_scope(p, p.find("if _: _ #1")),
        # each if follows its condition; the outer else lands in its first copy
        {"if _: _ #0": "if _: _ #1", "if _: _ #1": "if _: _ #0",
         "x[_] = 1.0": "x[_] = 1.0", "x[_] = 2.0": "x[_] = 2.0", "x[_] = 3.0": "x[_] = 3.0 #0"},
    ),
    "mult_loops": Row(
        "def f(x: f32[4, 8] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        for j in seq(0, 8):\n"
        "            x[i, j] = 1.0\n",
        lambda p: mult_loops(p, "i j", "k"),
        {"for i in _: _": "for k in _: _", "for j in _: _": "for k in _: _", "x[_] = _": "x[_] = _"},
    ),
    "divide_with_recompute": Row(
        "def f(x: f32[18] @ DRAM):\n"
        "    for i in seq(0, 18):\n"
        "        x[i] = 1.0\n",
        lambda p: divide_with_recompute(p, "i", 4, 4, ["io", "ii"]),
        {"for i in _: _": "for io in _: _", "x[_] = _": "x[_] = _"},
    ),
    "cut_loop": Row(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    assert n > 4\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n",
        lambda p: cut_loop(p, "i", 4),
        {"for i in _: _": "for i in _: _ #0", "x[_] = _": "x[_] = _ #0"},
    ),
    "fission (an if)": Row(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    if n > 4:\n"
        "        x[0] = 1.0\n"
        "        y[0] = 2.0\n"
        "    else:\n"
        "        y[1] = 3.0\n",
        lambda p: fission(p, p.find("x[_] = _").after()),
        {"if _: _": "if _: _ #0", "x[_] = _": "x[_] = _", "y[0] = _": "y[0] = _", "y[1] = _": "y[1] = _"},
    ),
    "add_loop": Row(
        "def f(x: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n",
        lambda p: add_loop(p, p.find("x[_] = _"), "r", 4),
        {"x[_] = _": "x[_] = _"},
    ),
    "add_loop (guarded)": Row(
        "def f(x: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n",
        lambda p: add_loop(p, p.find("x[_] = _"), "r", 4, guard=True),
        {"x[_] = _": "x[_] = _"},
    ),
    "commute_expr": Row(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        y[i] = x[i] * 2.0\n",
        lambda p: commute_expr(p, p.find("x[_] * _")),
        {"y[_] = _": "y[_] = _", "x[_] * _": "2.0 * _"},
    ),
}


def _every_cursor(p):
    """Every statement, block, gap and expression cursor of ``p``."""
    for owner, attr, stmts in stmt_list_field_paths(p._root):
        yield BlockCursor(p, owner, attr, 0, len(stmts))
        for i in range(len(stmts) + 1):
            yield GapCursor(p, owner, attr, i)
    for node, path in walk(p._root):
        if isinstance(node, N.Stmt) and path:
            yield make_stmt_cursor(p, path)
        elif isinstance(node, N.Expr):
            yield make_expr_cursor(p, path)


def _lands(c, f) -> bool:
    """``f`` (``c`` forwarded) is a location of ``c``'s kind in its procedure."""
    root = f.proc()._root
    if isinstance(c, BlockCursor):
        return isinstance(f, BlockCursor) and 0 <= f._lo <= f._hi <= len(getattr(get_node(root, f._owner_path), f._attr))
    if isinstance(c, GapCursor):
        return isinstance(f, GapCursor) and 0 <= f._idx <= len(getattr(get_node(root, f._owner_path), f._attr))
    if isinstance(c, StmtCursor):
        return type(f) is type(c)
    return isinstance(f, ExprCursor) and isinstance(f._node(), N.Expr)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_named_cursors_forward_to_what_find_locates(name):
    row = ROWS[name]
    p = proc_from_source(row.src)
    out = row.op(p)
    for before, after in row.expect.items():
        forwarded = out.forward(p.find(before))
        if after is None:
            assert isinstance(forwarded, InvalidCursor), before
        else:
            assert forwarded == out.find(after), (before, str(forwarded))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_cursor_forwards_to_a_location_or_is_invalidated(name):
    row = ROWS[name]
    p = proc_from_source(row.src)
    out = row.op(p)
    for c in _every_cursor(p):
        f = out.forward(c)
        assert isinstance(f, InvalidCursor) or _lands(c, f), (c, f)
