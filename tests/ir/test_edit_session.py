"""Unit tests for the transactional edit engine (repro.ir.edit.EditSession)."""
from __future__ import annotations

import pytest

from repro import proc_from_source
from repro.cursors import is_invalid
from repro.ir import nodes as N
from repro.ir.edit import EditSession
from repro.primitives import count_rewrites


@pytest.fixture
def p0():
    return proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "    for i in seq(0, n):\n"
        "        y[i] = 2.0\n"
    )


def test_insert_and_delete(p0):
    first = p0.find("for i in _: _")
    session = EditSession(p0)
    session.insert_stmts(first.after(), [N.Pass()])
    with count_rewrites() as ctr:
        p = session.finish()
    assert "pass" in str(p)
    assert ctr.atomic_by_primitive == {"<direct>": 1}

    pass_cur = p.find("pass")
    session = EditSession(p)
    session.delete(pass_cur)
    p2 = session.finish()
    assert "pass" not in str(p2)
    # the statement after the deleted pass forwards back one slot
    second = p.find("for i in _: _", many=True)[1]
    assert p2.forward(second).is_valid()


def test_replace_forwards_inner(p0):
    loop = p0.find("for i in _: _")
    stmt = loop.body()[0]
    new_loop = N.For(
        loop.iter_sym(),
        N.Const(0, None),
        N.Const(4, None),
        [s for s in loop._node().body],
        "seq",
    )
    session = EditSession(p0)
    session.replace(loop, [new_loop], lambda off, rest: (off, rest))
    p = session.finish()
    fwd = p.forward(stmt)
    assert fwd.is_valid() and "x[i] = 1.0" in str(fwd)


def test_wrap(p0):
    loop = p0.find("for i in _: _")
    cond = N.BinOp(">", N.Read(p0._root.args[0].name, [], None), N.Const(0, None))

    session = EditSession(p0)
    session.wrap(loop, lambda stmts: N.If(cond, stmts, []))
    p = session.finish()
    assert "if n > 0:" in str(p)
    # the wrapped loop forwards into the wrapper's body
    fwd = p.forward(loop)
    assert fwd.is_valid() and "x[i] = 1.0" in str(fwd)


def test_move(p0):
    loops = p0.find("for i in _: _", many=True)
    session = EditSession(p0)
    # move the first loop after the second (post-removal gap index 1)
    session.move(loops[0], ((), "body", 1))
    p = session.finish()
    body = p._root.body
    assert "y[i]" in str(p.forward(loops[1]))
    assert "x[i]" in str(p.forward(loops[0]))
    assert body[0].body[0].name.name == "y"


def test_replace_expr_and_set_field(p0):
    rhs = p0.find("for i in _: _").body()[0].rhs()
    session = EditSession(p0)
    session.replace_expr(rhs, N.Const(7.0, None))
    session.set_field(p0.find("for i in _: _")._path, "pragma", "par")
    with count_rewrites() as ctr:
        p = session.finish()
    assert "x[i] = 7.0" in str(p)
    assert p._root.body[0].pragma == "par"
    assert ctr.atomic_edits == 2


def test_mid_session_cursor_forwarding(p0):
    """Cursors from the base procedure stay usable after earlier edits in the
    same session — the session forwards them through its partial trace."""
    first, second = p0.find("for i in _: _", many=True)
    session = EditSession(p0)
    session.insert_stmts(first.before(), [N.Pass()])
    # `second` was captured before the insertion shifted indices
    session.delete(second)
    p = session.finish()
    assert "y[i]" not in str(p)
    assert "pass" in str(p) and "x[i]" in str(p)


def test_finish_is_single_shot(p0):
    session = EditSession(p0)
    session.insert_stmts(((), "body", 0), [N.Pass()])
    session.finish()
    with pytest.raises(RuntimeError):
        session.finish()
    with pytest.raises(RuntimeError):
        session.insert_stmts(((), "body", 0), [N.Pass()])


def test_atomic_edit_counter_scope(p0):
    from repro import divide_loop

    with count_rewrites() as ctr:
        divide_loop(p0, "i", 2, ["io", "ii"], tail="guard")
    assert ctr.total == 1
    assert ctr.atomic_edits >= 1
    assert ctr.atomic_by_primitive.get("divide_loop", 0) >= 1


def test_invalidated_mid_session_cursor_raises(p0):
    from repro.errors import InvalidCursorError

    first = p0.find("for i in _: _")
    stmt = first.body()[0]
    session = EditSession(p0)
    session.delete(first)
    with pytest.raises(InvalidCursorError):
        session.delete(stmt)
