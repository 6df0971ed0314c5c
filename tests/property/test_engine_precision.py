"""A value stored in a scalar temporary has the temporary's declared precision
on every engine.

The interpreter and C round a value to its destination's type when they store
it.  The NumPy engine keeps a folded loop's per-iteration scalar temporary as
a whole-array value, so it casts that value where the type the right-hand
side derives differs from the declaration.  The CI ``native`` job runs this
file under gcc and clang.

A rewrite keeps that precision too.  ``bind_expr`` types its temporary by the
expression it binds, and an arithmetic node's type is derived from its
operands, so after ``set_precision`` the bound temporary has the precision the
operands now have and the result does not change."""
from __future__ import annotations

import numpy as np
import pytest

from repro import proc_from_source
from repro.interp import compiled_source, run_proc
from repro.primitives import bind_expr, set_precision

ENGINES = ("interp", "compiled", "c")
DTYPES = {"f32": np.float32, "f64": np.float64}
X = np.array([1 / 3, 2 / 7, -5 / 9, 1e-3])


def _outputs(p, data: str) -> list:
    """``y`` after running ``p`` on each engine."""
    outs = []
    for backend in ENGINES:
        y = np.zeros(4, DTYPES[data])
        run_proc(p, backend=backend, x=X.astype(DTYPES[data]), y=y)
        outs.append(y)
    return outs


def _assert_bit_identical(outs: list) -> None:
    for backend, out in zip(ENGINES[1:], outs[1:]):
        assert out.tobytes() == outs[0].tobytes(), f"{backend}: {out!r} != interp: {outs[0]!r}"


@pytest.mark.parametrize("write", ["u = x[i] * x[i]", "u = 0.0\n        u += x[i] * x[i]"])
@pytest.mark.parametrize("decl, data", [("f32", "f64"), ("f64", "f32"), ("f32", "f32"), ("f64", "f64")])
def test_a_folded_scalar_temporary_holds_its_declared_precision(write, decl, data):
    p = proc_from_source(
        f"def f(x: {data}[4] @ DRAM, y: {data}[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        f"        u: {decl}\n"
        f"        {write}\n"
        "        y[i] = u\n"
    )
    assert "in range(" not in compiled_source(p), "the loop is folded into whole-array statements"
    outs = _outputs(p, data)
    _assert_bit_identical(outs)
    x = X.astype(DTYPES[data])
    assert outs[0].tobytes() == (x * x).astype(DTYPES[decl]).astype(DTYPES[data]).tobytes()


def test_bind_expr_after_set_precision_binds_the_new_precision():
    p = proc_from_source(
        "def f(x: f64[4] @ DRAM, y: f64[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        t: f32\n"
        "        t = x[i]\n"
        "        y[i] = t * t\n"
    )
    q = set_precision(p, "t", "f64")
    r = bind_expr(q, q.find("t * t"), "u")
    assert str(r.find_alloc_or_arg("u").typ()) == "f64"
    before, after = _outputs(q, "f64"), _outputs(r, "f64")
    _assert_bit_identical(before + after)


def test_set_precision_retypes_the_windows_over_the_buffer():
    # `w` views `t`: after `t` becomes f64, reads through `w` are f64 too, so
    # the temporary `bind_expr` makes of `w[i] * w[i]` is f64 and `y` keeps
    # every bit on every engine
    p = proc_from_source(
        "def f(x: f64[4] @ DRAM, y: f64[4] @ DRAM):\n"
        "    t: f32[4] @ DRAM\n"
        "    for i in seq(0, 4):\n"
        "        t[i] = x[i]\n"
        "    w = t[0:4]\n"
        "    for i in seq(0, 4):\n"
        "        y[i] = w[i] * w[i]\n"
    )
    q = set_precision(p, "t", "f64")
    r = bind_expr(q, q.find("w[i] * w[i]"), "u")
    assert str(r.find_alloc_or_arg("u").typ()) == "f64"
    before, after = _outputs(q, "f64"), _outputs(r, "f64")
    _assert_bit_identical(before + after)
