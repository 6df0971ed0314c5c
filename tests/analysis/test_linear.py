"""Linear-analysis tests: simplification, proving, divisibility."""
from __future__ import annotations

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
