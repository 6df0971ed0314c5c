"""Every refusal of the trusted primitives that no library schedule trips:
each test hands a primitive an argument it must reject and pins the error
type and message, so a check that stopped firing would be noticed (the model
is SYS_ATL's ``tests/test_forwarding.py``: pin the behaviour, not just the
lines)."""
from __future__ import annotations

import re

import numpy as np
import pytest

import repro
from repro import (
    InvalidCursorError, SchedulingError, add_loop, bind_expr, call_eqv, cut_loop, delete_config,
    divide_loop, extract_subproc, fission, fuse, inline, merge_writes, new_config, proc_from_source,
    remove_loop, reorder_stmts, resize_dim, set_memory, sink_alloc, stage_mem, unroll_buffer, unroll_loop,
    write_config,
)
from repro.interp import check_equiv, run_proc
from repro.ir.types import index_t
from repro.primitives import _base

SRC = """
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    assert n > 4
    for i in seq(0, n):
        y[i] = x[i] + 1.0
    for j in seq(0, n):
        x[j] = 0.0
"""


@pytest.fixture
def p():
    return proc_from_source(SRC)


# -- cursor and expression arguments (primitives/_base.py) --------------------


def test_the_first_argument_must_be_a_procedure():
    with pytest.raises(TypeError, match="divide_loop: first argument must be a Procedure, got str"):
        divide_loop("f", "i", 4, ["io", "ii"])


@pytest.mark.parametrize("call, message", [
    (lambda p: reorder_stmts(p, 3), "expected a cursor or pattern string, got int"),
    (lambda p: stage_mem(p, 3, "x[0:4]", "xs"), "expected a cursor or pattern string, got int"),
    (lambda p: fission(p, 3), "expected a gap cursor, got int"),
    (lambda p: set_memory(p, 3, repro.DRAM), "expected a cursor or buffer name, got int"),
    (lambda p: bind_expr(p, [3], "t"), "expected a cursor or pattern string, got int"),
])
def test_a_cursor_argument_of_the_wrong_python_type_is_a_type_error(p, call, message):
    with pytest.raises(TypeError, match=message):
        call(p)


def test_a_cursor_the_rewrite_deleted_is_refused():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for k in seq(0, 2):\n"
        "        x[1] = 1.0\n"
        "        y[1] = 2.0\n"
    )
    stale = p.find_loop("k")
    q = remove_loop(p, stale)  # two statements replace the loop: no image
    with pytest.raises(InvalidCursorError, match="cursor was invalidated by an earlier transformation"
                       r" \(target was: for k in seq\(0, 2\):\)"):
        divide_loop(q, stale, 2, ["ko", "ki"])


def test_a_statement_argument_may_be_a_block_or_a_pattern_naming_one(p):
    # a block stands for its first statement
    with pytest.raises(SchedulingError, match="reorder_stmts: the statements do not commute"):
        reorder_stmts(p, p.find_loop("i").as_block(), p.find_loop("j"))
    with pytest.raises(SchedulingError, match="reorder_stmts: the statements do not commute"):
        reorder_stmts(p, "for i in _: _\nfor j in _: _", p.find_loop("j"))


def test_a_statement_argument_must_be_a_statement(p):
    with pytest.raises(SchedulingError, match=r"merge_writes: expected a statement cursor, got ReadCursor"):
        merge_writes(p, p.find_loop("i").body()[0].rhs().lhs())


def test_a_statement_argument_must_be_of_the_primitive_kind(p):
    with pytest.raises(SchedulingError, match=r"inline: expected a cursor of kind CallCursor, got AssignCursor"
                       r" \(at: y\[i\] = x\[i\] \+ 1.0\)"):
        inline(p, "y[_] = _")


def test_a_loop_argument_must_name_or_point_at_a_loop(p):
    with pytest.raises(SchedulingError, match=r"divide_loop: expected a loop cursor, got AssignCursor"):
        divide_loop(p, p.find("y[_] = _"), 4, ["io", "ii"])
    with pytest.raises(SchedulingError, match=r"divide_loop: 'n' does not refer to a loop \(at: n\)"):
        divide_loop(p, "n", 4, ["io", "ii"])
    with pytest.raises(SchedulingError, match=r"divide_loop: 'i #1' does not refer to a loop \(at: i\)"):
        divide_loop(p, "i #1", 4, ["io", "ii"])


def test_a_missing_loop_in_a_procedure_without_loops_says_so():
    q = proc_from_source("def g(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    with pytest.raises(InvalidCursorError, match="no loop 'i'; the scope contains no loops"):
        q.find_loop("i")


def test_a_gap_argument_may_be_the_statement_or_block_before_it():
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        y[i] = 2.0\n"
    )
    want = str(fission(p, p.find("x[_] = _").after()))
    assert "for i in seq(0, n):\n        x[i] = 1.0\n    for i in seq(0, n):" in want
    assert str(fission(p, "x[_] = _")) == want
    assert str(fission(p, p.find("x[_] = _"))) == want
    assert str(fission(p, p.find("x[_] = _").as_block())) == want


def test_an_allocation_argument_must_be_an_allocation(p):
    q = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    t: f32 @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        t = x[i]\n"
        "        x[i] = t\n"
    )
    assert "t: f32 @ DRAM" in str(set_memory(q, q.find("t: _"), repro.DRAM))
    assert "t: f32 @ DRAM" in str(set_memory(q, "t: _", repro.DRAM))
    assert "t: f32 @ DRAM" in str(set_memory(q, q.find("t: _").as_block(), repro.DRAM))
    with pytest.raises(SchedulingError, match=r"set_memory: expected an allocation or argument, got AssignCursor"):
        set_memory(q, q.find("t = _"), repro.DRAM)
    with pytest.raises(SchedulingError, match=r"set_memory: expected an allocation or argument, got ForCursor"):
        set_memory(q, "for i in _: _", repro.DRAM)


def test_an_expression_argument_must_be_an_expression(p):
    with pytest.raises(SchedulingError, match=r"bind_expr: expected an expression cursor, got AssignCursor"):
        bind_expr(p, ["y[_] = _"], "t")
    with pytest.raises(SchedulingError, match=r"bind_expr: expected an expression cursor, got ForCursor"):
        bind_expr(p, [p.find_loop("i")], "t")


@pytest.mark.parametrize("value, message", [
    ([2], "cut_loop: expected an expression, a number or a string, got list"),
    ("n +* 2", r"cut_loop: cannot resolve 'n \+\* 2' in the scope of its target"),
])
def test_an_expression_value_must_be_an_expression(p, value, message):
    with pytest.raises(SchedulingError, match=message):
        cut_loop(p, "i", value)


def test_an_expression_value_may_be_a_symbol_or_a_cursor(p):
    n = p._root.args[0].name
    by_sym = cut_loop(p, "i", n)
    assert str(by_sym) == str(cut_loop(p, "i", "n"))
    hi = p.find_loop("i").hi()
    assert str(cut_loop(p, "i", hi)) == str(by_sym)


def test_the_innermost_primitive_names_a_nested_refusal(monkeypatch):
    monkeypatch.setattr(_base, "PRIMITIVE_REGISTRY", {})

    @_base.scheduling_primitive
    def tile_twice(proc):
        return divide_loop(proc, "k", 4, ["ko", "ki"])

    with pytest.raises(InvalidCursorError) as info:
        tile_twice(proc_from_source(SRC))
    assert info.value.primitive == "divide_loop"
    assert str(info.value) == "divide_loop: pattern 'k' did not match"


# -- the other primitive modules ----------------------------------------------


def test_sink_alloc_refuses_a_buffer_used_outside_the_target(p):
    q = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    t: f32 @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        t = x[i]\n"
        "    x[0] = t\n"
    )
    with pytest.raises(SchedulingError, match="sink_alloc: the buffer is used outside the target statement"):
        sink_alloc(q, "t")


def test_resize_dim_folds_indices_modulo_the_new_size():
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    assert n > 2\n"
        "    t: f32[n] @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        t[i] = x[i]\n"
        "        x[i] = t[i] * 2.0\n"
    )
    q = resize_dim(p, "t", 0, 2, fold=True)
    assert "t: f32[2]" in str(q) and "t[i % 2] = x[i]" in str(q)
    assert check_equiv(p, q, {"n": 7})


def test_unroll_buffer_refuses_a_windowed_buffer():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    t: f32[2, 4] @ DRAM\n"
        "    w = t[0, 0:4]\n"
        "    t[1, 0] = x[0]\n"
    )
    with pytest.raises(SchedulingError, match="unroll_buffer: the buffer cannot be windowed"):
        unroll_buffer(p, "t", 0)


def test_stage_mem_stages_an_allocated_buffer():
    p = proc_from_source(
        "def g(x: f32[8] @ DRAM):\n"
        "    t: f64[8] @ DRAM\n"
        "    for i in seq(0, 8):\n"
        "        t[i] = x[i]\n"
        "    for i in seq(0, 8):\n"
        "        x[i] = t[i]\n"
    )
    q = stage_mem(p, "for i in _: _ #1", "t[0:8]", "ts")
    assert "ts: f64[8]" in str(q)
    assert check_equiv(p, q, {})


def test_divide_loop_refuses_an_unknown_tail_strategy(p):
    with pytest.raises(SchedulingError, match="divide_loop: unknown tail strategy 'shift'"):
        divide_loop(p, "i", 4, ["io", "ii"], tail="shift")


def test_forwarding_a_loop_through_remove_loop_and_unroll_loop():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for k in seq(0, 2):\n"
        "        x[0] = 1.0\n"
        "    for k in seq(0, 2):\n"
        "        x[1] = 1.0\n"
        "        y[1] = 2.0\n"
    )
    one, two = p.find_loop("k"), p.find_loop("k #1")
    q = remove_loop(p, one)
    assert str(q.forward(one)) == "x[0] = 1.0"
    r = remove_loop(q, q.forward(two))
    assert not r.forward(q.forward(two)).is_valid()  # two statements replaced it
    s = unroll_loop(p, two)
    assert str(s.forward(two)) == "x[1] = 1.0"


def test_add_loop_takes_a_block_cursor():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n"
        "    x[1] = 2.0\n"
    )
    block = p.find("x[0] = _").as_block().expand(0, 1)
    q = add_loop(p, block, "k", 3)
    assert "for k in seq(0, 3):\n        x[0] = 1.0\n        x[1] = 2.0" in str(q)


def test_call_eqv_refuses_a_procedure_with_no_call_to_replace():
    g = proc_from_source(
        "def g(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        y[i] = x[i]\n"
    )
    g2 = divide_loop(g, "i", 2, ["io", "ii"], perfect=True)
    h = proc_from_source("def h(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n    y[0] = x[0]\n")
    with pytest.raises(SchedulingError, match="call_eqv: no call to 'g' found"):
        call_eqv(h, g, g2)


def test_extract_subproc_types_a_buffer_allocated_outside_the_block():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    t: f32[4] @ DRAM\n"
        "    for i in seq(0, 4):\n"
        "        t[i] = x[i]\n"
        "    for i in seq(0, 4):\n"
        "        x[i] = t[i]\n"
    )
    q, sub = extract_subproc(p, "for i in _: _ #1", "copy_back")
    assert "t: [f32][4] @ DRAM" in str(sub) and "copy_back(x, t)" in str(q)
    assert check_equiv(p, q, {})


@pytest.mark.parametrize("second, message", [
    ("x[j] = 0.0", "reorder_stmts: the two statements are not in the same block"),
])
def test_reorder_stmts_refuses_statements_in_different_blocks(p, second, message):
    with pytest.raises(SchedulingError, match=message):
        reorder_stmts(p, "y[_] = _", second)


def test_reorder_stmts_swaps_with_the_following_statement_or_accepts_them_reversed():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n"
        "    y[0] = 2.0\n"
    )
    want = "y[0] = 2.0\n    x[0] = 1.0"
    assert want in str(reorder_stmts(p, "x[_] = _"))
    assert want in str(reorder_stmts(p, "y[_] = _", "x[_] = _"))
    with pytest.raises(SchedulingError, match="reorder_stmts: there is no following statement to swap with"):
        reorder_stmts(p, "y[_] = _")


def test_fuse_refuses_a_loop_and_an_if():
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "    if n > 2:\n"
        "        x[0] = 2.0\n"
    )
    with pytest.raises(SchedulingError, match="fuse: expected two loops or two if statements"):
        fuse(p, "for i in _: _", "if _: _")


def test_merge_writes():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    x[0] = y[0]\n"
        "    x[0] += y[1]\n"
        "    y[2] += x[1]\n"
        "    y[2] += x[2]\n"
        "    y[3] = x[3]\n"
        "    y[3] = y[3] * 2.0\n"
    )
    q = merge_writes(p, "x[0] = _")
    assert "x[0] = y[0] + y[1]" in str(q)
    r = merge_writes(q, "y[2] += _")
    assert "y[2] += x[1] + x[2]" in str(r)
    assert check_equiv(p, r, {})
    with pytest.raises(SchedulingError, match="merge_writes: the second write reads its own destination"):
        merge_writes(p, "y[3] = x[_]")
    with pytest.raises(SchedulingError, match="merge_writes: no following statement"):
        merge_writes(p, "y[3] = y[_] * _")


def test_config_writes_read_through_a_call_are_kept():
    cfg = new_config("refusal_cfg", [("val", index_t)])
    reader = proc_from_source(
        "def reader(x: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n"
    )
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    x[1] = 2.0\n"
        "    reader(x)\n",
        {"reader": reader},
    )
    q = write_config(p, p.find("x[1] = _").before(), cfg, "val", 3)
    assert "refusal_cfg.val = 3" not in str(delete_config(q, q.body()[0]))


def test_a_bare_name_that_is_not_a_loop_is_looked_up_as_a_pattern(p):
    with pytest.raises(SchedulingError, match=r"merge_writes: expected a statement cursor, got ReadCursor \(at: n\)"):
        merge_writes(p, "n")


def test_a_block_argument_must_be_statements(p):
    with pytest.raises(SchedulingError, match="stage_mem: expected a block of statements, got ReadCursor"):
        stage_mem(p, p.find("x[_]"), "x[0:4]", "xs")


def test_an_allocation_pattern_may_match_a_block():
    q = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    t: f32 @ DRAM\n"
        "    t = x[0]\n"
        "    x[1] = t\n"
    )
    assert "t: f32 @ DRAM" in str(set_memory(q, "t: _\nt = _", repro.DRAM))


def test_a_float_value_becomes_a_float_constant():
    cfg = new_config("float_cfg", [("scale", repro.ir.types.f32)])
    p = proc_from_source("def g(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    assert "float_cfg.scale = 2.5" in str(write_config(p, p.find("x[0] = _").before(), cfg, "scale", 2.5))


def test_a_config_write_is_refused_where_later_code_reads_the_field():
    cfg = new_config("read_cfg", [("val", index_t)])
    reader = proc_from_source(
        "def reader(x: [f32][4] @ DRAM):\n"
        "    for i in seq(0, read_cfg.val):\n"
        "        x[0] = 1.0\n",
        {"read_cfg": cfg},
    )
    direct = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    for i in seq(0, read_cfg.val):\n"
        "        x[0] = 1.0\n",
        {"read_cfg": cfg},
    )
    through_call = proc_from_source("def h(x: f32[4] @ DRAM):\n    reader(x)\n", {"reader": reader})
    for p in (direct, through_call):
        with pytest.raises(SchedulingError, match="write_config: the configuration field is read by later code"):
            write_config(p, p.body()[0].before(), cfg, "val", 3)


def test_fission_keeps_a_buffer_local_to_the_first_half():
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        t: f32 @ DRAM\n"
        "        t = x[i]\n"
        "        x[i] = t * 2.0\n"
        "        y[i] = 1.0\n"
    )
    q = fission(p, "x[_] = _")
    assert "for i in seq(0, n):\n        y[i] = 1.0" in str(q)
    assert check_equiv(p, q, {"n": 5})


def test_fission_refuses_a_window_of_a_buffer_the_other_half_writes():
    copy = proc_from_source(
        "def copy4(d: [f32][4] @ DRAM, s: [f32][4] @ DRAM):\n"
        "    for k in seq(0, 4):\n"
        "        d[k] = s[k]\n"
    )
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM, y: f32[4] @ DRAM):\n"
        "    assert n >= 4\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        copy4(y[0:4], x[0:4])\n",
        {"copy4": copy},
    )
    with pytest.raises(SchedulingError, match="fission: the two halves of the loop body do not commute across iterations"):
        fission(p, "x[_] = _")


def test_delete_pass_without_a_pass_returns_the_procedure_itself(p):
    assert repro.delete_pass(p) is p


def test_merge_writes_keeps_the_second_of_two_assignments():
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    x[0] = 1.0\n"
        "    x[0] = 2.0\n"
    )
    assert "    x[0] = 2.0" in str(merge_writes(p, "x[0] = 1.0")) and "1.0" not in str(merge_writes(p, "x[0] = 1.0"))


def test_bind_expr_refuses_an_index_expression():
    # it once bound ``i + 1`` to an f32 temporary and indexed ``x`` with it
    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n - 1):\n"
        "        x[i] = x[i + 1]\n"
    )
    with pytest.raises(SchedulingError, match="bind_expr: only a numeric expression can be bound to a temporary, not index"):
        bind_expr(p, [p.find("i + 1")], "t")


SETTER = "def setter(a: f32, x: [f32][1] @ DRAM):\n    a = x[0]\n"


def test_inline_refuses_a_callee_that_writes_a_scalar_argument():
    # a scalar argument is the callee's copy (the interpreter and the NumPy
    # engine discard the write); inlining it as a write of the caller's
    # variable would change what the caller reads next
    setter = proc_from_source(SETTER)
    for actual in ("t", "x[1] + 1.0"):
        p = proc_from_source(
            "def g(x: f32[4] @ DRAM):\n"
            "    t: f32 @ DRAM\n"
            f"    setter({actual}, x[2:3])\n"
            "    x[0] = t\n",
            {"setter": setter},
        )
        with pytest.raises(SchedulingError, match="inline: callee writes a scalar argument"):
            inline(p, "setter(_)")


def _bump():
    return proc_from_source("def bump(n: size, a: f32, x: [f32][n] @ DRAM):\n    for i in seq(0, n):\n        x[i] += a\n")


@pytest.mark.parametrize("caller, actual", [
    ("def top(n: size, x: f32[n] @ DRAM):\n    bump(n, x[0], x)\n", "x[0]"),
    # through a window alias of the written buffer
    ("def top(n: size, x: f32[n] @ DRAM):\n    w = x[0:n]\n    bump(n, w[0], x[0:n])\n", "w[0]"),
    # a window bound that names the written buffer (a bound holds no data,
    # so a stride is the one way it can)
    ("def top(n: size, x: f32[n] @ DRAM):\n    bump(1, 1.0, x[stride(x, 0):stride(x, 0) + 1])\n", "stride(x, 0)"),
])
def test_inline_refuses_an_argument_the_call_would_see_change(caller, actual):
    # a call evaluates a scalar argument once; the inlined body would re-read
    # it after the loop's first write (`top` gives [2, 3, 4, 5] on every
    # engine, the substituted body [2, 4, 5, 6])
    p = proc_from_source(caller, {"bump": _bump()})
    with pytest.raises(SchedulingError, match=rf"inline: {re.escape(actual)} reads \w+, which the call may write"):
        inline(p, "bump(_)")


@pytest.mark.parametrize("backend", ["interp", "compiled", "c"])
def test_a_scalar_argument_is_passed_by_value_on_every_engine(backend):
    p = proc_from_source("def top(n: size, x: f32[n] @ DRAM):\n    bump(n, x[0], x)\n", {"bump": _bump()})
    x = np.array([1, 2, 3, 4], np.float32)
    run_proc(p, backend=backend, n=4, x=x)
    assert x.tolist() == [2, 3, 4, 5]


def test_inline_refuses_a_scalar_argument_that_is_not_pure():
    p = proc_from_source("def top(n: size, x: f32[n] @ DRAM):\n    bump(n, sin(x[0]), x)\n", {"bump": _bump()})
    with pytest.raises(SchedulingError, match=r"inline: the argument sin\(x\[0\]\) is not a pure expression"):
        inline(p, "bump(_)")
