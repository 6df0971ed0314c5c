"""``analysis.linear.decompose`` — the one definition of "affine in these
iterators" the lowerers use: whatever it accepts must be exact, and an
iterator under a product, ``/`` or ``%`` must make it decline."""
from __future__ import annotations

import operator

from hypothesis import given, settings, strategies as st

from repro.analysis import decompose, linear_to_expr, linearize
from repro.ir import Sym
from repro.ir import nodes as N
from repro.ir.build import used_syms_expr

IO, II, SIZE_N, SIZE_M = Sym("io"), Sym("ii"), Sym("n"), Sym("m")
ITERS = (IO, II)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.floordiv, "%": operator.mod}


def _read(sym):
    return N.Read(sym, [])


def _exprs(signed: bool):
    """Index expressions over two iterators and two sizes.  Divisors are
    positive constants or sizes; with ``signed=False`` there is no
    subtraction, no zero factor (constants are positive and no constant
    quotient folds to one), so no term cancels."""
    consts = st.integers(-4 if signed else 1, 4).map(N.Const)
    leaves = st.one_of(consts, st.sampled_from([IO, II, SIZE_N, SIZE_M]).map(_read))
    divisors = st.one_of(st.integers(1, 4).map(N.Const), st.sampled_from([SIZE_N, SIZE_M]).map(_read))

    def extend(sub):
        ops = ["+", "*"] + (["-"] if signed else [])
        numerators = sub if signed else sub.filter(used_syms_expr)
        nodes = [
            st.builds(N.BinOp, st.sampled_from(ops), sub, sub),
            st.builds(N.BinOp, st.sampled_from(["/", "%"]), numerators, divisors),
        ]
        return st.one_of(*nodes, st.builds(N.USub, sub)) if signed else st.one_of(*nodes)

    return st.recursive(leaves, extend, max_leaves=8)


def _eval(e, env) -> int:
    if isinstance(e, N.Const):
        return e.val
    if isinstance(e, N.Read):
        return env[e.name]
    if isinstance(e, N.USub):
        return -_eval(e.arg, env)
    return _OPS[e.op](_eval(e.lhs, env), _eval(e.rhs, env))


def _mentions_iter(e) -> bool:
    return bool(used_syms_expr(e) & set(ITERS))


def _iter_is_buried(e) -> bool:
    """Does an iterator occur under ``/``, ``%``, or ``*`` by a non-constant?"""
    if isinstance(e, N.USub):
        return _iter_is_buried(e.arg)
    if not isinstance(e, N.BinOp):
        return False
    if e.op in ("/", "%") and _mentions_iter(e):
        return True
    if e.op == "*" and any(
        _mentions_iter(x) and used_syms_expr(y) for x, y in ((e.lhs, e.rhs), (e.rhs, e.lhs))
    ):
        return True
    return _iter_is_buried(e.lhs) or _iter_is_buried(e.rhs)


_VALUATIONS = st.fixed_dictionaries(
    {IO: st.integers(-20, 20), II: st.integers(-20, 20), SIZE_N: st.integers(1, 9), SIZE_M: st.integers(1, 9)}
)


@settings(max_examples=300, deadline=None)
@given(e=_exprs(signed=True), env=_VALUATIONS)
def test_an_accepted_decomposition_is_exact(e, env):
    dec = decompose(linearize(e), *ITERS)
    if dec is None:
        return
    (a, b), rest = dec
    rest_expr = linear_to_expr(rest)
    assert not _mentions_iter(rest_expr)
    assert _eval(e, env) == a * env[IO] + b * env[II] + _eval(rest_expr, env)


@settings(max_examples=300, deadline=None)
@given(e=_exprs(signed=False))
def test_a_buried_iterator_is_declined(e):
    assert (decompose(linearize(e), *ITERS) is None) == _iter_is_buried(e)
