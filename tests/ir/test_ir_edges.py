"""IR helpers on the inputs the primitives rarely hand them: structural
equality of differing leaves, a substitution that reaches an allocation's
shape, an edit session given a stale, an invalid or an already-edited
cursor, the printer on window dimensions, and lookups of unknown names."""
from __future__ import annotations

import pytest

from repro import InvalidCursorError, proc_from_source
from repro.frontend.parser import parse_expr_fragment
from repro.ir import nodes as N
from repro.ir.build import structurally_equal
from repro.ir.config import config_by_name
from repro.ir.edit import EditSession
from repro.ir.externs import extern_by_name
from repro.ir.printing import expr_str

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    t: f32[n] @ DRAM\n"
    "    x[0] = 1.0\n"
    "    y[0] = 2.0\n"
)


@pytest.fixture
def p():
    return proc_from_source(SRC)


def test_structural_equality_compares_every_leaf(p):
    e = lambda s: parse_expr_fragment(s, p._root)  # noqa: E731
    assert structurally_equal(e("x[0]"), e("x[0]"))
    assert not structurally_equal(e("x[0]"), e("x[1]"))
    assert not structurally_equal(e("x[0]"), e("y[0]"))
    assert not structurally_equal(e("x[0]"), None) and structurally_equal(None, None)


def test_partial_eval_reaches_an_allocation_shape(p):
    assert "t: f32[8] @ DRAM" in str(p.partial_eval(n=8))


def test_an_edit_session_forwards_a_cursor_of_an_older_version(p):
    q = p.partial_eval(n=8)
    session = EditSession(q)
    session.delete(p.find("y[_] = _"))  # a cursor of p, the version before q
    assert "y[0]" not in str(session.finish())


def test_an_edit_session_refuses_invalid_and_already_edited_cursors(p):
    session = EditSession(p)
    with pytest.raises(InvalidCursorError, match="cannot edit through an invalid cursor"):
        session.replace_expr(p.body()[0].before().stmt_before(), N.Const(3.0, p.find("1.0")._node().typ))
    gone = p.find("x[_] = _")
    session.delete(gone)
    session.insert_stmts(p.body()[0].after(), [N.Pass()])
    with pytest.raises(InvalidCursorError, match="cursor was invalidated by an earlier edit in this session"):
        session.delete(gone)


def test_the_printer_renders_window_dimensions(p):
    w = parse_expr_fragment("x[0:n]", p._root)
    assert expr_str(w.idx[0]) == "0:n"
    a = parse_expr_fragment("x[n - 1]", p._root)
    assert expr_str(N.Point(a.idx[0])) == "n - 1"


def test_unknown_configs_and_externs_are_key_errors():
    with pytest.raises(KeyError, match="no Config named 'nothing_cfg' has been created"):
        config_by_name("nothing_cfg")
    with pytest.raises(KeyError, match="unknown extern function: 'nothing_fn'"):
        extern_by_name("nothing_fn")


def test_structural_equality_of_types_and_plain_values():
    from repro.ir.types import f32, f64

    assert structurally_equal(f32, f32) and not structurally_equal(f32, f64)
    assert structurally_equal(3, 3) and not structurally_equal(3, 4)


def test_a_thread_count_must_be_an_integer():
    from repro.interp.parallel import ThreadCountError, resolve_num_threads

    with pytest.raises(ThreadCountError, match="threads= must be a positive integer, got 'two'"):
        resolve_num_threads("two")
    assert resolve_num_threads("2") == 2


def test_equal_scalar_types_hash_alike():
    # scalar types compare by name, so a rebuilt one must find the entry of
    # the module's own in a dict or a set
    from repro.ir.types import ScalarType, f32, f64

    rebuilt = ScalarType("f32", is_numeric=True, is_float=True, bits=32)
    assert rebuilt == f32 and rebuilt is not f32
    assert {f32: "float", f64: "double"}[rebuilt] == "float"
    assert len({f32, rebuilt, f64}) == 2
