"""Library code no in-repo schedule calls: the ``bottomup`` traversal, the
Figure 5b spelling of ``hoist_stmt``, the ``reduce`` / ``apply``
combinators, the loop inspections of ``examples/growing_a_library.py`` and
bounds inference over more than one access."""
from __future__ import annotations

from repro import proc_from_source, unroll_loop
from repro.interp import check_equiv
from repro.ir import expr_str
from repro.stdlib import (
    apply, bottomup, hoist_stmt, hoist_stmt_loop, infer_bounds, innermost_loops, is_loop, lift,
    loop_bounds_const, reduce, topdown,
)

BRANCHY = proc_from_source(
    "def f(n: size, x: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        if i < 2:\n"
    "            x[i] = 0.0\n"
    "        else:\n"
    "            x[i] = 1.0\n"
    "        x[i] += 2.0\n"
)

TWO_INNER = proc_from_source(
    "def f(n: size, x: f32[n, 2] @ DRAM, y: f32[n, 3] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        for j in seq(0, 2):\n"
    "            x[i, j] = 1.0\n"
    "        for k in seq(1, 4):\n"
    "            y[i, k - 1] = 2.0\n"
)


def _kinds(cursors):
    return [str(c).splitlines()[0].strip() for c in cursors]


def test_bottomup_visits_children_then_the_node_including_else_branches():
    order = _kinds(bottomup(BRANCHY.find_loop("i")))
    assert order == ["x[i] = 0.0", "x[i] = 1.0", "if i < 2:", "x[i] += 2.0", "for i in seq(0, n):"]
    assert sorted(order) == sorted(_kinds(topdown(BRANCHY.find_loop("i"))))


def test_hoist_stmt_loop_is_hoist_stmt_written_with_python_loops():
    inv = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM, c: f32[1] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        c[0] = 2.0\n"
    )
    out = hoist_stmt_loop(inv, inv.find("c[_] = _"))
    assert str(out.body()[0]).startswith("c[0] = 2.0")
    assert str(out) == str(hoist_stmt(inv, inv.find("c[_] = _"))[0])
    assert check_equiv(inv, out, {"n": 5})


def test_reduce_applies_a_cop_at_every_cursor_of_a_traversal():
    p, last = reduce(lift(unroll_loop), innermost_loops)(TWO_INNER, TWO_INNER.find_loop("i"))
    assert "for j" not in str(p) and "for k" not in str(p)
    assert last.name() == "k"
    assert check_equiv(TWO_INNER, p, {"n": 3})


def test_apply_maps_an_op_over_a_list_of_cursors():
    loops = list(innermost_loops(TWO_INNER.find_loop("i")))
    p = apply(unroll_loop)(TWO_INNER, loops)
    assert str(p) == str(reduce(lift(unroll_loop), innermost_loops)(TWO_INNER, TWO_INNER.find_loop("i"))[0])


def test_loop_inspections():
    j, k = innermost_loops(TWO_INNER.find_loop("i"))
    assert is_loop(j) and not is_loop(j.body()[0])
    assert loop_bounds_const(k) == (1, 4)
    assert loop_bounds_const(TWO_INNER.find_loop("i")) == (0, None)


def test_infer_bounds_merges_every_access_and_gives_the_extent():
    p = proc_from_source(
        "def f(n: size, x: f32[n + 2] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        y[i] = x[i + 1] + x[i] + x[i + 2]\n"
    )
    b = infer_bounds(p, p.find_loop("i"), "x")
    assert (b.reads, b.writes) == (3, 0)
    assert [expr_str(e) for e in b.lo] == ["0"] and [expr_str(e) for e in b.hi] == ["n + 2"]
    assert [expr_str(e) for e in b.extent()] == ["n + 2"]
