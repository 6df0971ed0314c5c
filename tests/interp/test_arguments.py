"""``run_proc`` binds each parameter exactly once, or refuses the call the way
Python refuses a call: naming what is unknown, surplus, doubly bound or
missing, beside the parameter list."""

from __future__ import annotations

import numpy as np
import pytest

from repro import proc_from_source
from repro.blas import LEVEL1_KERNELS
from repro.interp import InterpError, run_proc

N = 16


@pytest.fixture
def saxpy_args():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(N).astype(np.float32)
    y = rng.standard_normal(N).astype(np.float32)
    return x, y, y + 2.0 * x


def test_misspelt_keywords_are_refused_not_dropped(saxpy_args):
    x, y, _ = saxpy_args
    before = y.copy()
    with pytest.raises(InterpError, match=r"saxpy\(n, alpha, x, y\): unknown arguments \['backnd', 'treads'\]"):
        run_proc(LEVEL1_KERNELS["saxpy"], n=N, alpha=2.0, x=x, y=y, backnd="c", treads=4)
    np.testing.assert_array_equal(y, before)  # nothing ran


def test_a_surplus_positional_argument_is_refused(saxpy_args):
    x, y, _ = saxpy_args
    with pytest.raises(InterpError, match=r"saxpy\(n, alpha, x, y\): surplus positional arguments \['#4'\]"):
        run_proc(LEVEL1_KERNELS["saxpy"], N, 2.0, x, y, x.copy())


def test_a_parameter_bound_twice_is_refused_not_overridden(saxpy_args):
    x, y, _ = saxpy_args
    with pytest.raises(InterpError, match=r"saxpy\(n, alpha, x, y\): doubly bound arguments \['n'\]"):
        run_proc(LEVEL1_KERNELS["saxpy"], N, 2.0, x, y, n=4)


def test_every_problem_is_named_at_once(saxpy_args):
    x, _, _ = saxpy_args
    with pytest.raises(InterpError) as err:
        run_proc(LEVEL1_KERNELS["saxpy"], 4, 2.0, alpha=1.0, z=x)
    assert str(err.value) == (
        "saxpy(n, alpha, x, y): unknown arguments ['z']; doubly bound arguments ['alpha']; "
        "missing arguments ['x', 'y']"
    )


def test_a_mixed_call_binding_each_parameter_once_still_runs(saxpy_args):
    x, y, want = saxpy_args
    run_proc(LEVEL1_KERNELS["saxpy"], N, 2.0, y=y, x=x)
    np.testing.assert_allclose(y, want, rtol=1e-6)


# -- preconditions ---------------------------------------------------------------
#
# Checked before any engine runs, by the same generated function on every
# backend.  ``n / 4`` and the connectives are rendered as Python; the stride
# and the division of a float are not, and go through the tree interpreter.

_GUARDED = proc_from_source(
    "def guarded(n: size, a: f32, x: f32[n] @ DRAM):\n"
    "    assert n / 4 >= 2 and (n % 8 == 0 or n == 12)\n"
    "    assert stride(x, 0) == 1\n"
    "    assert a / 2.0 < 1.0\n"
    "    for i in seq(0, n):\n"
    "        x[i] = a\n"
)
_FAILING = [
    ({"n": 10, "a": 1.0, "x": np.zeros(10, np.float32)}, "n / 4 >= 2 and (n % 8 == 0 or n == 12)"),
    ({"n": 4, "a": 1.0, "x": np.zeros(4, np.float32)}, "n / 4 >= 2 and (n % 8 == 0 or n == 12)"),
    ({"n": 16, "a": 1.0, "x": np.zeros(32, np.float32)[::2]}, "stride(x, 0) == 1"),
    ({"n": 16, "a": 3.0, "x": np.zeros(16, np.float32)}, "a / 2.0 < 1.0"),
]


@pytest.mark.parametrize("backend", ["interp", "compiled", "c", "differential"])
@pytest.mark.parametrize("case", range(len(_FAILING)))
def test_a_failing_precondition_reads_the_same_on_every_backend(backend, case):
    values, pred = _FAILING[case]
    with pytest.raises(InterpError) as info:
        run_proc(_GUARDED, backend=backend, **values)
    assert str(info.value) == f"procedure precondition failed: {pred}"
    assert not values["x"].any()  # nothing ran


@pytest.mark.parametrize("backend", ["interp", "compiled", "c"])
def test_preconditions_that_hold_let_every_backend_run(backend):
    for n in (8, 12, 16):
        x = np.zeros(n, np.float32)
        run_proc(_GUARDED, backend=backend, n=n, a=1.5, x=x)
        np.testing.assert_array_equal(x, np.full(n, 1.5, np.float32))


@pytest.mark.parametrize("backend", ["interp", "compiled", "c", "differential"])
@pytest.mark.parametrize("x", [np.float32(1.0), np.zeros((4, 1), np.float32)], ids=["0-d", "2-d"])
def test_a_tensor_of_another_rank_is_refused_on_every_backend(backend, x):
    # the parser checks every rank inside a procedure; the arrays a caller
    # passes are checked once, when they are bound, whatever the engine
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[stride(x, 0) - 1] = 2.0\n")
    with pytest.raises(InterpError, match=r"f: argument 'x' has shape \((4, 1)?\), but is declared f32\[4\]"):
        run_proc(p, backend=backend, x=x)
