"""Front-end parser tests: argument types, statements, expressions, errors."""
from __future__ import annotations

import pytest

from repro import ParseError, proc_from_source
from repro.ir import Alloc, Assign, For, If, Reduce, TensorType, WindowStmt


def test_parse_gemv(gemv):
    root = gemv._root
    assert root.name == "_gemv"
    assert [a.name.name for a in root.args] == ["M", "N", "A", "x", "y"]
    assert isinstance(root.args[2].typ, TensorType)
    assert len(root.preds) == 2
    assert isinstance(root.body[0], For)


def test_parse_window_argument():
    p = proc_from_source(
        "def f(n: size, x: [f32][n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 1.0\n"
    )
    assert p._root.args[1].typ.is_window


def test_parse_alloc_if_and_else():
    p = proc_from_source(
        """
def f(n: size, x: f32[n] @ DRAM):
    t: f32 @ DRAM
    for i in seq(0, n):
        if i < 4:
            x[i] = 0.0
        else:
            x[i] = 1.0
"""
    )
    body = p._root.body
    assert isinstance(body[0], Alloc)
    loop = body[1]
    assert isinstance(loop.body[0], If)
    assert len(loop.body[0].orelse) == 1


def test_parse_reduce_vs_assign():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] += 1.0\n"
    )
    assert isinstance(p._root.body[0].body[0], Reduce)


def test_parse_errors():
    with pytest.raises(ParseError):
        proc_from_source("def f(n): pass\n")  # missing annotation
    with pytest.raises(ParseError):
        proc_from_source("def f(n: size):\n    for i in range(0, n):\n        pass\n")
    with pytest.raises(ParseError):
        proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    x[0] -= 1.0\n")
    with pytest.raises(ParseError):
        proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    y[0] = 1.0\n")


def test_parse_extern_and_stride():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        y[i] = fabs(x[i]) + stride(x, 0)\n"
    )
    text = str(p)
    assert "fabs(x[i])" in text and "stride(x, 0)" in text


def test_string_annotations_supported():
    p = proc_from_source(
        "def f(n: 'size', x: 'f32[n] @ DRAM'):\n    for i in seq(0, n):\n        x[i] = 0.0\n"
    )
    assert p._root.args[1].typ.is_tensor_or_window()


_G = "def g(n: size, x: [f32][1] @ DRAM):\n    x[0] = 1.0\n"


def test_call_arity_is_checked_where_the_call_is_written():
    g = proc_from_source(_G)
    with pytest.raises(ParseError, match=r"f:2: g takes 2 argument\(s\), 1 given"):
        proc_from_source("def f(y: f32[4] @ DRAM):\n    g(y[0:1])\n", {"g": g})


@pytest.mark.parametrize("actual", ["a", "a * 2.0", "y[0]"])
def test_a_value_is_not_passed_to_a_tensor_parameter(actual):
    g = proc_from_source(_G)
    src = f"def f(a: f32, y: f32[4] @ DRAM):\n    g(1, {actual})\n"
    with pytest.raises(ParseError, match="argument 'x' of g is a tensor"):
        proc_from_source(src, {"g": g})


def test_buffers_are_passed_by_reference():
    g = proc_from_source(_G)
    p = proc_from_source(
        """
def f(y: f32[4] @ DRAM, z: f32[1] @ DRAM):
    t: f32[1] @ DRAM
    c: f32 @ DRAM
    w = y[2:3]
    g(1, z)
    g(1, t)
    g(1, c[0:1])
    g(1, w)
    g(1, y[0:1])
""",
        {"g": g},
    )
    assert len(p._root.body) == 8


def test_the_loop_and_stride_markers_also_run_as_plain_python():
    """``seq`` / ``par`` / ``stride`` are read by the parser, and object code
    that imports them from ``repro.lang`` still runs as ordinary Python."""
    from repro.lang import par, seq, stride

    assert seq(2, 5) == range(2, 5) and par(0, 3) == range(0, 3)
    assert stride(object(), 1) == 1
