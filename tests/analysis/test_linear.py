"""Linear-analysis tests: simplification, proving, divisibility."""
from __future__ import annotations

from repro import proc_from_source, simplify
from repro.analysis import FactEnv, const_value, exprs_equal, prove, prove_divisible, simplify_expr
from repro.frontend.parser import parse_expr_fragment
from repro.ir import expr_str


def _e(gemv, s):
    return parse_expr_fragment(s, gemv._root)


def test_constant_folding(gemv):
    assert const_value(_e(gemv, "3 * 4 + 2")) == 14
    assert const_value(_e(gemv, "(7 + 9) / 8")) == 2
    assert const_value(_e(gemv, "17 % 8")) == 1


def test_collect_terms(gemv):
    e = simplify_expr(_e(gemv, "M + M + 0 * N"))
    assert expr_str(e) == "2 * M"
    e = simplify_expr(_e(gemv, "(M + N) - N"))
    assert expr_str(e) == "M"


def test_divmod_simplification(gemv):
    env = FactEnv.from_proc(gemv._root)
    # i in [0, 8) makes (8*q + i) % 8 == i and (8*q + i)/8 == q
    from repro.ir import Sym
    q, i = Sym("q"), Sym("i")
    env.add_range(i, 0, 7)
    env.add_range(q, 0, 100)
    from repro.frontend.parser import parse_expr_fragment
    e = parse_expr_fragment("(8 * M + N) % 8", gemv._root)
    # N has no range facts, so this must NOT fold
    assert expr_str(simplify_expr(e, env)) != "N"


def test_prove_comparisons(gemv):
    env = FactEnv.from_proc(gemv._root)
    assert prove(_e(gemv, "M >= 0"), env) is True      # sizes are positive
    assert prove(_e(gemv, "M < 0"), env) is False
    assert prove(_e(gemv, "M > 100"), env) is None      # unknown
    assert prove(_e(gemv, "M % 8 == 0"), env) is True   # from the assertion


def test_prove_divisible(gemv):
    env = FactEnv.from_proc(gemv._root)
    assert prove_divisible(_e(gemv, "M"), 8, env)
    assert prove_divisible(_e(gemv, "M"), 4, env)       # 8 | M implies 4 | M? (8k divisible by 4)
    assert not prove_divisible(_e(gemv, "M + 1"), 8, env)
    assert prove_divisible(_e(gemv, "16 * N"), 8, env)


def test_exprs_equal(gemv):
    assert exprs_equal(_e(gemv, "M + N"), _e(gemv, "N + M"))
    assert exprs_equal(_e(gemv, "2 * M"), _e(gemv, "M + M"))
    assert not exprs_equal(_e(gemv, "M"), _e(gemv, "N"))


def test_a_loop_from_an_unknown_bound_proves_nothing_about_its_iterator():
    """``for i in seq(a - 5, n)`` with ``a: index``: ``i >= 0`` is unknown, so
    ``simplify`` keeps the ``else`` branch (it used to delete it, and the
    "simplified" proc then wrote ``x[-3]``)."""
    import numpy as np

    from repro import proc_from_source, simplify
    from repro.interp import run_proc

    p = proc_from_source(
        "def f(n: size, a: index, x: f32[n] @ DRAM, y: f32[1] @ DRAM):\n"
        "    for i in seq(a - 5, n):\n"
        "        if i >= 0:\n"
        "            x[i] = 1.0\n"
        "        else:\n"
        "            y[0] += 1.0\n"
    )
    loop = p._root.body[0]
    env = FactEnv.from_proc(p._root).with_loop(loop.iter, loop.lo, loop.hi)
    assert prove(loop.body[0].cond, env) is None

    q = simplify(p)
    assert "else" in str(q)
    got = {}
    for label, proc in (("original", p), ("simplified", q)):
        x, y = np.zeros(4, np.float32), np.zeros(1, np.float32)
        run_proc(proc, 4, 2, x, y)
        got[label] = (x.tolist(), y.tolist())
    assert got["original"] == got["simplified"] == ([1.0] * 4, [3.0])


def test_a_loop_from_a_nonnegative_symbolic_bound_still_proves_its_iterator(gemv):
    from repro.ir import Sym
    from repro.ir import nodes as N

    io, i = Sym("io"), Sym("i")
    env = FactEnv.from_proc(gemv._root).with_loop(io, _e(gemv, "0"), _e(gemv, "M / 8"))
    lo = N.BinOp("*", N.Const(8), N.Read(io, []))
    env = env.with_loop(i, lo, N.BinOp("+", lo, N.Const(8)))
    assert prove(N.BinOp(">=", N.Read(i, []), N.Const(0)), env) is True


TAIL = proc_from_source(
    "def tail(N: size, x: f32[N] @ DRAM, acc: f32[8] @ DRAM):\n"
    "    for ji in seq(0, N % 8):\n"
    "        x[ji + 8 * (N / 8)] = acc[(ji + 8 * (N / 8)) % 8]\n"
)


def test_a_loop_iterator_is_bounded_by_a_symbolic_trip():
    """``for ji in seq(0, N % 8)``: the trip is at most 7, so ``ji <= 6``."""
    loop = TAIL._root.body[0]
    env = FactEnv.from_proc(TAIL._root).with_loop(loop.iter, loop.lo, loop.hi)
    assert (env.lower[loop.iter], env.upper[loop.iter]) == (0, 6)


def test_a_triangular_loop_is_bounded_by_its_outer_range():
    p = proc_from_source(
        "def tri(N: size, x: f32[8, N] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        for j in seq(0, i):\n"
        "            x[i, j] = 0.0\n"
        "    for k in seq(0, N):\n"
        "        for l in seq(0, k):\n"
        "            x[0, l] = 0.0\n"
    )
    outer = p._root.body[0]
    env = FactEnv.from_proc(p._root).with_loop(outer.iter, outer.lo, outer.hi)
    inner = outer.body[0]
    env = env.with_loop(inner.iter, inner.lo, inner.hi)
    assert (env.lower[inner.iter], env.upper[inner.iter]) == (0, 6)
    # an unbounded outer trip leaves the inner iterator unbounded above
    outer = p._root.body[1]
    env = FactEnv.from_proc(p._root).with_loop(outer.iter, outer.lo, outer.hi)
    inner = outer.body[0]
    env = env.with_loop(inner.iter, inner.lo, inner.hi)
    assert env.lower[inner.iter] == 0 and inner.iter not in env.upper


def test_a_trip_that_cannot_run_leaves_an_empty_range():
    """``for i in seq(0, N % 1)`` never runs: ``0 <= i <= -1``."""
    from repro.ir import Sym
    from repro.ir import nodes as N

    i = Sym("i")
    env = FactEnv.from_proc(TAIL._root).with_loop(i, N.Const(0), parse_expr_fragment("N % 1", TAIL._root))
    assert (env.lower[i], env.upper[i]) == (0, -1)


def test_simplify_folds_a_vector_tail_lane_to_the_iterator():
    """The level-1/2 tails' lane index ``(ji + 8 * (N / 8)) % 8`` is ``ji``
    once ``ji`` is bounded by its trip ``N % 8``."""
    q = simplify(TAIL)
    assert "acc[ji]" in str(q) and "% 8]" not in str(q)
    loop = TAIL._root.body[0]
    env = FactEnv.from_proc(TAIL._root).with_loop(loop.iter, loop.lo, loop.hi)
    assert expr_str(simplify_expr(loop.body[0].rhs.idx[0], env)) == "ji"
