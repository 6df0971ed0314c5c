"""``run_proc`` binds each parameter exactly once, or refuses the call the way
Python refuses a call: naming what is unknown, surplus, doubly bound or
missing, beside the parameter list."""

from __future__ import annotations

import numpy as np
import pytest

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
