"""The parser types every expression once, and the three engines read that
type: each generated ``+ - * / %`` expression over ``size`` arguments, int and
float literals, ``i32`` / ``f32`` reads and extern calls is either refused by
the parser or computes the same value on the interpreter, the NumPy engine and
C — in a value position and in a subscript.  An extern is typed by its result
(``sqrt(n)`` is a float), not by its first argument.

An integer ``/`` and ``%`` floor (C lowers them to ``>>`` / ``&`` by a power
of two and to ``repro_fdiv`` / ``repro_fmod`` otherwise), which depends on the
compiler; the CI ``native`` job runs this file under gcc and clang."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ParseError, proc_from_source
from repro.interp import run_proc

SIG = "def f(n: size, m: size, x: f32[4] @ DRAM, k: i32[4] @ DRAM, z: f64[8] @ DRAM):\n"
SIZES = {"n": 7, "m": 4}
X = np.array([2.5, -1.5, 4.0, 0.5], np.float32)
K = np.array([7, -3, 2, -8], np.int32)

# a divisor is a leaf that is never zero
divisors = st.sampled_from(["n", "m", "2", "3", "-4", "8", "2.0", "-0.5", "x[0]", "x[3]", "k[0]", "k[1]"])
leaves = st.one_of(divisors, st.sampled_from(["1", "0", "x[1]", "k[3]", "1.5"]))


def _expr(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.sampled_from(["/", "%"]), divisors).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"(-{e})"),
    )


# an extern's result type is the rule it was registered with: a float for a
# floating-point function, the arithmetic type of its values otherwise
externs = st.one_of(
    st.sampled_from(["sqrt(n)", "fabs(k[1])", "clamp(k[0])", "relu(k[1])", "relu(m)", "fmin(n, m)"]),
    st.sampled_from(["acc_scale(n, m)", "acc_scale(k[0], x[1])", "fmax(n, x[0])"]),
    st.sampled_from(["select(n, 4, x[2], 0.0)", "select(m, n, k[0], 3)", "select(n, m, 1, 2)"]),
)
exprs = st.recursive(st.one_of(leaves, externs), _expr, max_leaves=4)


def _runs(body: str):
    """``z`` after ``body`` on each engine, or None when the parser refuses it."""
    try:
        p = proc_from_source(SIG + body)
    except ParseError as exc:
        assert "not an index expression" in str(exc)
        return None
    outs = []
    for backend in ("interp", "compiled", "c"):
        z = np.zeros(8, np.float64)
        run_proc(p, backend=backend, x=X.copy(), k=K.copy(), z=z, **SIZES)
        outs.append(z)
    return outs


@settings(max_examples=40, deadline=None)
@given(e=exprs)
def test_every_engine_computes_what_the_parser_typed(e):
    value = _runs(f"    z[0] = {e}\n")
    assert value is not None  # a value position holds any expression
    interp, compiled, c = value
    np.testing.assert_allclose(compiled, interp, rtol=1e-6, err_msg=e)
    np.testing.assert_allclose(c, interp, rtol=1e-6, err_msg=e)
    index = _runs(f"    z[({e}) % 8] = 5.0\n")
    if index is not None:
        interp, compiled, c = index
        assert interp.tolist() == compiled.tolist() == c.tolist(), e


def test_an_integer_over_a_float_is_a_float_division():
    # the type recorded on the node was i32 (the first numeric operand's),
    # while all three engines divided as floats
    p = proc_from_source(SIG + "    z[0] = k[0] / x[3]\n")
    assert p._root.body[0].rhs.typ.name == "f32"
    interp, compiled, c = _runs("    z[0] = k[0] / x[3]\n")
    assert interp[0] == compiled[0] == c[0] == 14.0


def test_an_extern_is_typed_by_its_result():
    # sqrt of a size was typed as the size: its `/` floored to 1, while the
    # function is a float one
    p = proc_from_source(SIG + "    z[0] = sqrt(n) / 2\n")
    assert p._root.body[0].rhs.typ.is_float
    for z in _runs("    z[0] = sqrt(n) / 2\n"):
        assert z[0] == pytest.approx(7 ** 0.5 / 2)
    for body in ("    z[0] = select(n, 4, x[0], 0.0) / 2\n", "    z[0] = fmax(n, x[0]) / 2\n", "    z[0] = clamp(k[0]) / 2\n"):
        interp, compiled, c = _runs(body)
        assert interp[0] == compiled[0] == c[0] != int(interp[0]), body
    with pytest.raises(ParseError, match="f:2: 'sqrt\\(n\\)' is f64, not an index expression"):
        proc_from_source(SIG + "    z[sqrt(n)] = 1.0\n")
