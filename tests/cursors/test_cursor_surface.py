"""The cursor API, accessor by accessor, over one procedure that holds every
statement and expression kind the object language has.

Each row of :data:`ACCESSORS` drives one accessor and compares what it
returns (printed) with what the procedure's text says it must be."""
from __future__ import annotations

import pytest

from repro import InvalidCursorError, new_config, proc_from_source
from repro.cursors import (
    AllocCursor, BlockCursor, CallCursor, ExprCursor, ForCursor, GapCursor, IfCursor, InvalidCursor,
    PassCursor, ReadCursor, WindowStmtCursor, WriteConfigCursor,
)
from repro.ir.types import index_t

CFG = new_config("surface_cfg", [("k", index_t)])

CALLEE = proc_from_source(
    "def zero4(x: [f32][4] @ DRAM):\n"
    "    for i in seq(0, 4):\n"
    "        x[i] = 0.0\n"
)

EVERY_KIND = proc_from_source(
    """
def every_kind(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    t: f32[n, 4] @ DRAM
    s: f32 @ DRAM
    surface_cfg.k = n
    w = x[0:4]
    zero4(y[0:4])
    pass
    for i in seq(0, n):
        if i < surface_cfg.k:
            y[i] = -x[i] + select(x[i], 0.0, a, 0.0)
        else:
            y[i] += a * stride(x, 0)
        for j in seq(0, 4):
            t[i, j] = x[i]
""",
    {"surface_cfg": CFG, "zero4": CALLEE},
)


def _if(p):
    return p.find("if _: _")


def _show(v):
    """A cursor, a list of cursors or a plain value, as text."""
    if isinstance(v, list):
        return [_show(e) for e in v]
    if isinstance(v, (BlockCursor, GapCursor, InvalidCursor)):
        return repr(v)
    return str(v)


# (accessor, drive it on EVERY_KIND, the printed result)
ACCESSORS = [
    # statement kinds
    ("StmtCursor.body (a statement with no body)", lambda p: p.find("pass").body(), InvalidCursorError),
    ("StmtCursor.find_all", lambda p: p.find_loop("i").find_all("x[_]"), ["x[i]", "x[i]", "x[i]"]),
    ("_NodeCursor.depth", lambda p: p.find("t[_] = _").depth(), "3"),
    ("IfCursor.cond", lambda p: _if(p).cond(), "i < surface_cfg.k"),
    ("IfCursor.body", lambda p: _if(p).body().anchor(), "y[i] = -x[i] + select(x[i], 0.0, a, 0.0)"),
    ("IfCursor.orelse", lambda p: _if(p).orelse().anchor(), "y[i] += a * stride(x, 0)"),
    ("IfCursor.has_orelse", lambda p: _if(p).has_orelse(), "True"),
    ("_WriteCursor.buf_sym", lambda p: p.find("y[_] += _").buf_sym(), "y"),
    ("AllocCursor.mem", lambda p: p.find("t: _").mem().name, "DRAM"),
    ("AllocCursor.base_type", lambda p: p.find("t: _").base_type(), "f32"),
    ("AllocCursor.shape", lambda p: p.find("t: _").shape(), ["n", "4"]),
    ("AllocCursor.is_scalar", lambda p: [p.find("t: _").is_scalar(), p.find("s: _").is_scalar()], ["False", "True"]),
    ("CallCursor.subproc", lambda p: p.body()[4].subproc().name(), "zero4"),
    ("CallCursor.name", lambda p: p.body()[4].name(), "zero4"),
    ("CallCursor.args", lambda p: p.body()[4].args(), ["y[0:4]"]),
    ("WindowStmtCursor.name", lambda p: p.body()[3].name(), "w"),
    ("WindowStmtCursor.rhs", lambda p: p.body()[3].rhs(), "x[0:4]"),
    ("WriteConfigCursor.config", lambda p: p.body()[2].config(), "surface_cfg"),
    ("WriteConfigCursor.field", lambda p: p.body()[2].field(), "k"),
    ("WriteConfigCursor.rhs", lambda p: p.body()[2].rhs(), "n"),
    # expression kinds
    ("ExprCursor.typ", lambda p: p.find("y[_] = _").rhs().typ(), "f32"),
    ("ExprCursor.parent_expr", lambda p: p.find("y[_] = _").rhs().lhs().parent_expr(), "-x[i] + select(x[i], 0.0, a, 0.0)"),
    ("ExprCursor.parent_expr (at the top)", lambda p: p.find("y[_] = _").rhs().parent_expr(), "InvalidCursor()"),
    ("ReadCursor.buf_sym", lambda p: p.find("t[_] = _").rhs().buf_sym(), "x"),
    ("ReadCursor.is_scalar_read", lambda p: [p.find("y[_] += _").rhs().lhs().is_scalar_read(), p.find("t[_] = _").rhs().is_scalar_read()], ["True", "False"]),
    ("WindowExprCursor.name", lambda p: p.body()[3].rhs().name(), "x"),
    ("WindowExprCursor.buf_sym", lambda p: p.body()[3].rhs().buf_sym(), "x"),
    ("BinOpCursor.rhs", lambda p: p.find("y[_] += _").rhs().rhs(), "stride(x, 0)"),
    ("UnaryMinusCursor.arg", lambda p: p.find("y[_] = _").rhs().lhs().arg(), "x[i]"),
    ("ExternCursor.name", lambda p: p.find("y[_] = _").rhs().rhs().name(), "select"),
    ("StrideExprCursor.name", lambda p: p.find("y[_] += _").rhs().rhs().name(), "x"),
    ("StrideExprCursor.dim", lambda p: p.find("y[_] += _").rhs().rhs().dim(), "0"),
    ("ReadConfigCursor.config", lambda p: _if(p).cond().rhs().config(), "surface_cfg"),
    ("ReadConfigCursor.field", lambda p: _if(p).cond().rhs().field(), "k"),
    # shape expressions live outside the tree: frozen expression cursors
    ("ArgCursor.shape", lambda p: p.get_arg("x").shape(), ["n"]),
    ("ArgCursor.shape (a scalar)", lambda p: p.get_arg("a").shape(), []),
    ("_FrozenExprCursor.typ", lambda p: p.get_arg("x").shape()[0].typ(), "size"),
    ("_FrozenExprCursor._descriptor", lambda p: p.find("t: _").shape()[1]._descriptor(), "None"),
    # blocks
    ("BlockCursor.find", lambda p: p.find_loop("i").body().find("x[_]", many=True), ["x[i]", "x[i]", "x[i]"]),
    ("BlockCursor.find (one)", lambda p: p.find_loop("i").body().find("t[_] = _"), "t[i, j] = x[i]"),
    ("BlockCursor.find (no match)", lambda p: p.find_loop("i").body().find("s = _"), InvalidCursorError),
    ("BlockCursor.find_loop", lambda p: p.body().find_loop("j").name(), "j"),
    ("BlockCursor.find_loop (many)", lambda p: [c.name() for c in p.body().find_loop("j", many=True)], ["j"]),
    ("BlockCursor.find_loop (no match)", lambda p: p.find_loop("i").body().find_loop("i"), InvalidCursorError),
    ("BlockCursor.anchor", lambda p: p.find_loop("j").body().anchor(), "t[i, j] = x[i]"),
    ("BlockCursor.anchor (empty block)", lambda p: BlockCursor(p, (), "body", 0, 0).anchor(), InvalidCursorError),
    ("BlockCursor.parent", lambda p: p.find_loop("j").body().parent().name(), "j"),
    ("BlockCursor.parent (top level)", lambda p: p.body().parent(), InvalidCursorError),
    ("BlockCursor.after", lambda p: p.find_loop("i").body().after(), "<GapCursor at index 2>"),
    ("BlockCursor.__str__", lambda p: str(p.find("w = _").as_block()), "w = x[0:4]"),
    # gaps
    ("GapCursor.anchor", lambda p: p.find("pass").before().anchor(), "pass"),
    ("GapCursor.anchor (end of a list)", lambda p: p.find_loop("j").body().after().anchor(), "t[i, j] = x[i]"),
    ("GapCursor.parent", lambda p: p.find("t[_] = _").after().parent().name(), "j"),
    ("GapCursor.parent (top level)", lambda p: p.find("pass").after().parent(), InvalidCursorError),
]


@pytest.mark.parametrize("accessor,drive,expected", ACCESSORS, ids=[a[0] for a in ACCESSORS])
def test_accessor(accessor, drive, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            drive(EVERY_KIND)
    else:
        assert _show(drive(EVERY_KIND)) == expected


def test_every_statement_kind_gets_its_cursor_class():
    kinds = [type(c) for c in EVERY_KIND.body()]
    assert kinds == [AllocCursor, AllocCursor, WriteConfigCursor, WindowStmtCursor, CallCursor, PassCursor, ForCursor]
    assert isinstance(EVERY_KIND.find_loop("i").body()[0], IfCursor)
    assert isinstance(EVERY_KIND.find("t[_] = _").rhs(), ReadCursor)
    assert all(isinstance(e, ExprCursor) for e in EVERY_KIND.get_arg("x").shape())


def test_block_gap_and_arg_cursors_compare_by_place():
    p = EVERY_KIND
    body = p.find_loop("i").body()
    assert body == p.find_loop("i").body() and hash(body) == hash(p.find_loop("i").body())
    assert body != p.find_loop("j").body()
    gap = p.find("pass").after()
    assert gap == p.find_loop("i").before() and hash(gap) == hash(p.find_loop("i").before())
    assert gap != p.find("pass").before()
    arg = p.get_arg("x")
    assert arg == p.args()[2] and hash(arg) == hash(p.args()[2]) and arg != p.get_arg("y")
    assert arg._descriptor() == ("arg", 2)
    assert len({body, p.find_loop("i").body(), gap, p.find_loop("i").before(), arg, p.args()[2]}) == 3


def test_invalid_cursors_are_all_equal():
    a, b = InvalidCursor(), EVERY_KIND.find("pass").next(99)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != EVERY_KIND.find("pass")
    assert a._descriptor() is None
