"""The index prover and simplifier on the forms the kernels never ask about:
connectives, flipped and strict facts, products of sizes, floor division of
possibly negative values, numeric identities, and comparisons it can and
cannot decide."""
from __future__ import annotations

import pytest

from repro import proc_from_source
from repro.analysis import FactEnv, prove, prove_divisible, simplify_expr
from repro.analysis.linear import linearize
from repro.frontend.parser import parse_expr_fragment
from repro.ir import expr_str

P = proc_from_source(
    "def f(n: size, m: size, s: size, k: index, b: bool, a: f32, x: f32[n] @ DRAM):\n"
    "    assert n <= 8\n"
    "    assert 2 < m\n"
    "    assert m < 6\n"
    "    assert n % 16 == 0\n"
    "    x[0] = a\n"
)
ENV = FactEnv.from_proc(P._root)


def _e(src):
    return parse_expr_fragment(src, P._root)


@pytest.mark.parametrize("cond, verdict", [
    ("True", True),
    ("b", None),
    ("n + 1", None),
    ("m > 2 and m < 6", True),
    ("m > 2 and m > 6", False),
    ("m > 2 and k > 0", None),
    ("m > 9 or m < 6", True),
    ("m > 9 or m < 2", False),
    ("m > 9 or k > 0", None),
    ("n <= 8", True),
    ("n < 9", True),
    ("3 <= m", True),
    ("m == 4", None),
    ("m != 7", True),
    ("m != m", False),
    ("m == m + 1", False),
    ("n / k >= 0", None),
    ("k != 0", None),
    ("n % 8 == 0", True),
    ("k % 8 == 0", None),
    ("m * n >= 0", True),
    ("m * m >= 9", True),
    ("m * k >= 0", None),
    ("m * s >= 0", True),
    ("m * s <= 100", None),
    ("0 - m * s <= 0", True),
    ("0 - m * s >= 0 - 100", None),
    ("0 - m * n <= 0", True),
    ("(k + 1) * (k - 1) == k * k - 1", True),
    ("b == True", None),
])
def test_prove(cond, verdict):
    assert prove(_e(cond), ENV) is verdict


def test_a_fact_pins_a_size():
    g = proc_from_source("def g(n: size):\n    assert n == 4\n    pass\n")._root
    env = FactEnv.from_proc(g)
    assert prove(parse_expr_fragment("n == 4", g), env) is True
    assert prove(parse_expr_fragment("n * n <= 16", g), env) is True


@pytest.mark.parametrize("src, simple", [
    ("-(2 + 3)", "-5"),
    ("-(k + 1)", "-(k + 1)"),
    ("7 / 2", "3"),
    ("7 % 2", "1"),
    ("m % 8", "m"),
    ("4 * (k / 4) + k % 4", "k"),
    ("k % m", "k % m"),
    ("k / m + k % m", "k % m + k / m"),
    ("m * n / 8", "m * n / 8"),
    ("(k - 20) / 4 <= 0", "(k - 20) / 4 <= 0"),
    ("n < n + 1", "True"),
    ("n > n + 1", "False"),
    ("k < m", "k < m"),
    ("1.0 * a", "a"),
    ("a * 1.0", "a"),
    ("0.0 * a", "0"),
    ("0.0 + a", "a"),
    ("a + 0.0", "a"),
    ("a - 0.0", "a"),
    ("1.0 / 0.0", "1.0 / 0.0"),
])
def test_simplify(src, simple):
    assert expr_str(simplify_expr(_e(src), ENV)) == simple


def test_a_floor_quotient_of_a_negative_range_is_bounded_below_zero():
    env = FactEnv.from_proc(P._root).with_loop(_e("k").name, _e("0 - 9"), _e("0 - 2"))
    assert prove(_e("k / 4 < 0"), env) is True
    assert env.interval(linearize(_e("k / m")))[1] is not None


def test_divisibility_through_a_quotient():
    assert prove_divisible(_e("4 * (k / 4)"), 4, ENV)
    assert not prove_divisible(_e("k / 2"), 4, ENV)
    assert not prove_divisible(_e("2 * (k / 2)"), 4, ENV)
    assert not prove_divisible(_e("0.5 * k"), 2, ENV)  # a fractional coefficient


def test_linearizing_a_fresh_parse_leaves_no_module_level_state_behind():
    """An opaque atom carries its own expression, so the quotients and
    remainders of every procedure ever parsed are not kept for the life of
    the process."""
    from repro.analysis import linear

    def sizes():
        return {k: len(v) for k, v in vars(linear).items() if isinstance(v, (dict, list, set))}

    before = sizes()
    for _ in range(3):
        q = proc_from_source(
            "def g(n: size, x: f32[n] @ DRAM):\n"
            "    for i in seq(0, n / 8):\n"
            "        x[8 * i + n % 8] = 0.0\n"
        )
        env = FactEnv.from_proc(q._root)
        e = parse_expr_fragment("8 * (n / 8) + n % 8", q._root)
        assert expr_str(simplify_expr(e, env)) == "n"
        assert expr_str(simplify_expr(parse_expr_fragment("n / 8 + n / 8", q._root), env)) == "2 * (n / 8)"
    assert sizes() == before
