"""Every pattern form ``Procedure.find`` accepts, matched and refused: unary
minus, comparisons, extern and stride calls, windows, loop bounds, if/else
bodies, multi-statement bodies with a trailing wildcard, and statement kinds
that must not match one another."""
from __future__ import annotations

import pytest

from repro import InvalidCursorError, ParseError, proc_from_source

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, A: f32[n, n] @ DRAM):\n"
    "    assert n > 4\n"
    "    for i in seq(0, n):\n"
    "        y[i] = -x[i] + fabs(x[i]) * stride(A, 0)\n"
    "        if i < 2:\n"
    "            y[i] = -1.0\n"
    "        else:\n"
    "            pass\n"
    "    for j in seq(1, n - 1):\n"
    "        w = A[j, 0:n]\n"
    "        x[j] += w[0]\n"
)


@pytest.fixture(scope="module")
def p():
    return proc_from_source(SRC)


@pytest.mark.parametrize("pattern, found", [
    ("-x[_]", "-x[i]"),
    ("-1.0", "-1.0"),
    ("-_", "-x[i]"),
    ("i < 2", "i < 2"),
    ("_ < _", "i < 2"),
    # a lone call is a call-statement pattern; inside an expression it
    # matches an extern or a stride
    ("fabs(_) * _", "fabs(x[i]) * stride(A, 0)"),
    ("_(x[_]) * _", "fabs(x[i]) * stride(A, 0)"),
    ("_ * stride(_, _)", "fabs(x[i]) * stride(A, 0)"),
    ("A[j, _:_]", "A[j, 0:n]"),
    ("A[_]", "A[j, 0:n]"),
])
def test_an_expression_pattern_finds_its_first_match(p, pattern, found):
    assert str(p.find(pattern)) == found


@pytest.mark.parametrize("pattern", [
    "-2.0", "-y[_]", "i <= 2", "i < 2 < 3", "fmax(_) * _", "fabs(_, _) * _", "_ * sqrt(_)", "fabs(_) * fabs(_)",
    "A[_:_, j]", "A[j, 0]", "A[j, 0:n, 0]", "i > x[_]", "-(i < 2)", "x[i + 1]", "[_]",
])
def test_an_expression_pattern_that_matches_nothing(p, pattern):
    with pytest.raises(InvalidCursorError, match="did not match"):
        p.find(pattern)


@pytest.mark.parametrize("pattern, first", [
    ("for j in seq(1, n - 1): _", "for j in seq(1, n - 1):"),
    ("for _ in par(_, _): _", "for i in seq(0, n):"),  # the pragma is not matched
    ("for _ in range(0, n): _", None),
    ("for i in _:\n    y[_] = _\n    if _: _", "for i in seq(0, n):"),
    ("for i in _:\n    y[_] = _\n    _", "for i in seq(0, n):"),
    ("for i in _:\n    y[_] = _\n    y[_] = _", None),
    ("for i in _:\n    y[_] = _\n    if _: _\n    y[_] = _", None),
    ("if i < 2:\n    y[_] = _\nelse:\n    pass", "if i < 2:"),
    ("if _:\n    _\nelse:\n    y[_] = _", None),
    ("if i > 2: _", None),
    ("if _:\n    y[_] = _\n    y[_] = _", None),
    ("w = A[_]", "w = A[j, 0:n]"),
    ("v = A[_]", None),
    ("w = x[_]", None),
    ("w: _", None),
    ("x[_] += w[_]", "x[j] += w[0]"),
    ("x[_] += y[_]", None),
    ("n = _", None),
    ("y[_] += _", None),
    ("x[j, 0] += _", None),
    ("y, x = _", None),
    ("pass", "pass"),
    ("_ ; x[_] += _", "w = A[j, 0:n]"),
    ("for j in seq(0, n): _", None),
    ("y[_] = x[_] = _", None),
    ("del x", None),
    ("g(_)", None),
    ("w = _ ; x[_] += _", "w = A[j, 0:n]"),
    ("_ = _", "y[i] = -x[i] + fabs(x[i]) * stride(A, 0)"),
])
def test_a_statement_pattern(p, pattern, first):
    if first is None:
        with pytest.raises(InvalidCursorError, match="did not match"):
            p.find(pattern)
    else:
        found = p.find(pattern)
        found = found[0] if hasattr(found, "_lo") else found
        assert str(found).splitlines()[0] == first


def test_an_unparsable_pattern_is_a_parse_error(p):
    with pytest.raises(ParseError, match=r"could not parse pattern 'for \(\(\)': "):
        p.find("for (()")


def test_a_call_pattern_names_its_callee():
    g = proc_from_source("def g(v: [f32][4] @ DRAM):\n    v[0] = 1.0\n")
    q = proc_from_source("def h(x: f32[4] @ DRAM):\n    g(x)\n", {"g": g})
    assert str(q.find("g(_)")) == "g(x)" and str(q.find("_(x)")) == "g(x)"
    with pytest.raises(InvalidCursorError, match="pattern 'k\\(_\\)' did not match"):
        q.find("k(_)")
