"""Loop-transformation primitive tests (behaviour + safety + equivalence)."""
from __future__ import annotations

import pytest

from repro import (
    SchedulingError, add_loop, cut_loop, divide_loop, fission, fuse, join_loops,
    lift_scope, mult_loops, remove_loop, reorder_loops, shift_loop, simplify, unroll_loop,
)
from repro.interp import check_equiv


@pytest.mark.parametrize("tail", ["cut", "guard", "cut_and_guard"])
def test_divide_loop_tails_preserve_semantics(axpy, tail):
    p = divide_loop(axpy, "i", 8, ["io", "ii"], tail=tail)
    assert check_equiv(axpy, p, {"n": 21})
    assert check_equiv(axpy, p, {"n": 32})


def test_divide_loop_perfect_requires_divisibility(axpy, gemv):
    with pytest.raises(SchedulingError):
        divide_loop(axpy, "i", 8, ["io", "ii"], perfect=True)
    p = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    assert check_equiv(gemv, p, {"M": 16, "N": 8})


def test_reorder_loops(copy2d, gemv):
    p = reorder_loops(copy2d, "i")
    assert str(p.body()[0].name()) == "j"
    assert check_equiv(copy2d, p, {"M": 5, "N": 7})
    # gemv's j loop reduces into y[i]; interchange is still legal
    p2 = reorder_loops(gemv, "i")
    assert check_equiv(gemv, p2, {"M": 8, "N": 8})
    # one interchange rule under two names: the same result, the same refusals
    assert str(lift_scope(copy2d, "j")) == str(reorder_loops(copy2d, "i j")) == str(p)
    from repro import proc_from_source

    triangular = proc_from_source(
        "def t(n: size, x: f32[n, n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        for j in seq(0, i):\n"
        "            x[i, j] = 1.0\n"
    )
    for interchange, arg in ((reorder_loops, "i j"), (lift_scope, "j")):
        with pytest.raises(SchedulingError, match="inner loop bounds depend on the outer iterator"):
            interchange(triangular, arg)
        with pytest.raises(TypeError, match="unsafe_disable_check"):  # there is no unchecked mode
            interchange(triangular, arg, unsafe_disable_check=True)


def test_lift_scope_tiling(gemv):
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    g = divide_loop(g, "j", 8, ["jo", "ji"], perfect=True)
    g = lift_scope(g, "jo")
    from repro.cursors import ForCursor

    names = []
    cur = g.body()[0]
    while isinstance(cur, ForCursor):
        names.append(cur.name())
        body = cur.body()
        if len(body) != 1:
            break
        cur = body[0]
    assert names[:4] == ["io", "jo", "ii", "ji"]
    assert check_equiv(gemv, g, {"M": 16, "N": 16})


def test_cut_and_join():
    from repro import proc_from_source

    big = proc_from_source(
        "def f(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n >= 8\n"
        "    for i in seq(0, n):\n"
        "        y[i] += a * x[i]\n"
    )
    p = cut_loop(big, "i", "4")
    assert len(p.find("for i in _: _", many=True)) == 2
    assert check_equiv(big, p, {"n": 11})
    joined = join_loops(p, p.find("for i in _: _ #0"), p.find("for i in _: _ #1"))
    assert check_equiv(big, joined, {"n": 11})


def test_cut_loop_requires_valid_cut_point(axpy):
    with pytest.raises(SchedulingError):
        cut_loop(axpy, "i", "4")  # cannot prove 4 <= n for an arbitrary size n


def test_shift_loop(axpy):
    p = shift_loop(axpy, "i", 2)
    assert check_equiv(axpy, p, {"n": 9})


def test_mult_loops(gemv):
    g = divide_loop(gemv, "i", 8, ["io", "ii"], perfect=True)
    g = mult_loops(g, "io", "i_flat")
    g = simplify(g)
    assert check_equiv(gemv, g, {"M": 16, "N": 8})


def test_unroll_loop(gemv):
    g = divide_loop(gemv, "j", 8, ["jo", "ji"], perfect=True)
    g = unroll_loop(g, "ji")
    assert len(g.find_loop("jo").body()) == 8
    assert check_equiv(gemv, g, {"M": 8, "N": 16})


def test_unroll_requires_constant_bounds(gemv):
    with pytest.raises(SchedulingError):
        unroll_loop(gemv, "i")


def test_fission_and_fuse(copy2d):
    from repro import proc_from_source
    p0 = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        y[i] = x[i] + 1.0\n"
    )
    loop = p0.find_loop("i")
    p = fission(p0, loop.body()[0].after())
    assert len(p.find("for i in _: _", many=True)) == 2
    assert check_equiv(p0, p, {"n": 9})
    refused = fuse(p, *p.find("for i in _: _", many=True))
    assert check_equiv(p0, refused, {"n": 9})


def test_fission_rejects_accumulation():
    from repro import proc_from_source
    p0 = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        y[0] += x[i]\n"
        "        x[i] = y[0]\n"
    )
    loop = p0.find_loop("i")
    with pytest.raises(SchedulingError):
        fission(p0, loop.body()[0].after())


def test_remove_and_add_loop(copy2d):
    p = add_loop(copy2d, copy2d.find_loop("i"), "rep", 3)
    assert check_equiv(copy2d, p, {"M": 4, "N": 4})
    back = remove_loop(p, "rep")
    assert check_equiv(copy2d, back, {"M": 4, "N": 4})


def test_remove_loop_rejects_reductions(gemv):
    with pytest.raises(SchedulingError):
        remove_loop(gemv, "j")


def test_fission_of_an_if_keeps_its_else_branch():
    from repro import proc_from_source
    p = proc_from_source(
        "def f(n: size, y: f32[4] @ DRAM):\n"
        "    if n > 2:\n"
        "        y[0] = 1.0\n"
        "        y[1] = 2.0\n"
        "    else:\n"
        "        y[2] = 3.0\n"
    )
    q = fission(p, p.body()[0].body()[1].before())
    assert "    if n > 2:\n        y[1] = 2.0\n    else:\n        y[2] = 3.0" in str(q)
    assert check_equiv(p, q, {"n": 1}) and check_equiv(p, q, {"n": 3})
