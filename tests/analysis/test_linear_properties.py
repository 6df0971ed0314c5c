"""Properties of ``simplify_expr`` on generated index trees: it keeps the
value under the procedure's facts, its output is a fixed point, and a linear
form survives the trip through ``linear_to_expr`` and back.  Also the cost
the one-form-per-affine-subtree design buys: a sum of k terms is rebuilt
once, not once per level."""
from __future__ import annotations

import operator

from hypothesis import given, settings, strategies as st

from repro import proc_from_source
from repro.analysis import FactEnv, linear_to_expr, linearize, simplify_expr
from repro.analysis import linear
from repro.ir import nodes as N
from repro.ir.types import index_t, int_t

P = proc_from_source(
    "def f(M: size, N: size, x: f32[M, N] @ DRAM):\n"
    "    assert M % 8 == 0\n"
    "    assert N % 8 == 0\n"
    "    x[0, 0] = 0.0\n"
)
ENV = FactEnv.from_proc(P._root)
M, N_ = (a.name for a in P._root.args[:2])
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.floordiv, "%": operator.mod}


def _read(sym):
    return N.Read(sym, [], index_t)


def _const(v):
    return N.Const(v, int_t)


# nested + - * / % trees over M, N and constants; a divisor is a positive
# constant or a size, so no valuation divides by zero
_LEAVES = st.one_of(st.integers(-9, 9).map(_const), st.sampled_from([M, N_]).map(_read))
_DIVISORS = st.one_of(st.integers(1, 16).map(_const), st.sampled_from([M, N_]).map(_read))
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda op, a, b: N.BinOp(op, a, b), st.sampled_from(["+", "-", "*"]), sub, sub),
        st.builds(lambda op, a, b: N.BinOp(op, a, b), st.sampled_from(["/", "%"]), sub, _DIVISORS),
        st.builds(lambda a: N.USub(a), sub),
    ),
    max_leaves=10,
)
# valuations the procedure's facts allow: sizes are positive multiples of 8
_VALUATIONS = st.fixed_dictionaries({M: st.integers(1, 8).map(lambda k: 8 * k), N_: st.integers(1, 8).map(lambda k: 8 * k)})


def _eval(e, env) -> int:
    if isinstance(e, N.Const):
        return e.val
    if isinstance(e, N.Read):
        return env[e.name]
    if isinstance(e, N.USub):
        return -_eval(e.arg, env)
    return _OPS[e.op](_eval(e.lhs, env), _eval(e.rhs, env))


@settings(max_examples=400, deadline=None)
@given(e=_TREES, vals=_VALUATIONS)
def test_simplify_keeps_the_value_under_the_procedures_facts(e, vals):
    assert _eval(simplify_expr(e, ENV), vals) == _eval(e, vals)


@settings(max_examples=400, deadline=None)
@given(e=_TREES)
def test_simplify_reaches_a_fixed_point_in_one_call(e):
    out = simplify_expr(e, ENV)
    assert simplify_expr(out, ENV) is out


@settings(max_examples=400, deadline=None)
@given(e=_TREES)
def test_a_linear_form_round_trips_through_its_expression(e):
    lf = linearize(e)
    out = linear_to_expr(lf)
    assert linearize(out) == lf  # the memo linear_to_expr leaves
    assert linear._linearize(out) == lf  # and what the tree itself gives


def test_a_sum_of_k_terms_is_rebuilt_once(monkeypatch):
    calls = []
    real = linear.linear_to_expr

    def counting(lf):
        calls.append(lf)
        return real(lf)

    monkeypatch.setattr(linear, "linear_to_expr", counting)
    k = 12
    e = _const(1)
    for j in range(1, k):  # ((1 + 2*M) + 3*N) + 4*M ...: left-nested, k terms
        e = N.BinOp("+", e, N.BinOp("*", _const(j + 1), _read(M if j % 2 else N_)))
    out = simplify_expr(e, ENV)
    assert len(calls) == 1
    assert linearize(out) == linearize(e)
    assert simplify_expr(out, ENV) is out
