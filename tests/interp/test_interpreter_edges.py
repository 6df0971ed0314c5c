"""The tree interpreter and the argument binder on what the kernels never
do: read configuration state nobody wrote, compare with every operator,
index below zero, write a scalar argument, assert a negated size, and the
helpers' own refusals."""
from __future__ import annotations

import numpy as np
import pytest

from repro import new_config, proc_from_source
from repro.interp import InterpError, check_equiv, make_random_args, run_proc
from repro.ir.types import index_t

CFG = new_config("interp_cfg", [("k", index_t)])


def test_a_configuration_read_before_any_write_is_refused():
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM):\n"
        "    for i in seq(0, interp_cfg.k):\n"
        "        x[i] = 1.0\n",
        {"interp_cfg": CFG},
    )
    with pytest.raises(InterpError, match="read of configuration field interp_cfg.k before any write"):
        run_proc(p, backend="interp", config_state={}, x=np.zeros(4, np.float32))


@pytest.mark.parametrize("cond, want", [
    ("i <= 1", [1, 1, 0, 0]),
    ("i > 1", [0, 0, 1, 1]),
    ("i != 2", [1, 1, 0, 1]),
    ("i >= 1 and i < 3", [0, 1, 1, 0]),
    ("i < 1 or i == 3", [1, 0, 0, 1]),
])
def test_every_comparison_and_connective(cond, want):
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        f"        if {cond}:\n"
        "            x[i] = 1.0\n"
        "        else:\n"
        "            pass\n"
    )
    out = run_proc(p, backend="interp", x=np.zeros(4, np.float32))
    assert out["x"].tolist() == want


@pytest.mark.parametrize("stmt, message", [
    ("x[i - 1] = 1.0", r"out-of-bounds write to x\[-1\] \(negative index\)"),
    ("g(x[i - 1, 0:2])", r"out-of-bounds window of x \(negative index\)"),
])
def test_a_negative_index_is_refused_not_wrapped(stmt, message):
    g = proc_from_source("def g(v: [f32][2] @ DRAM):\n    v[0] = 1.0\n")
    shape = "4, 2" if "g(" in stmt else "4"
    p = proc_from_source(
        f"def f(x: f32[{shape}] @ DRAM):\n"
        "    for i in seq(0, 2):\n"
        f"        {stmt}\n",
        {"g": g},
    )
    with pytest.raises(InterpError, match=message):
        run_proc(p, backend="interp", x=np.zeros(tuple(int(d) for d in shape.split(", ")), np.float32))


def test_a_scalar_argument_is_a_local_copy():
    p = proc_from_source(
        "def f(a: f32, x: f32[2] @ DRAM):\n"
        "    a = 2.0\n"
        "    a += 1.0\n"
        "    x[0] = a\n"
    )
    out = run_proc(p, backend="interp", a=7.0, x=np.zeros(2, np.float32))
    assert out["x"].tolist() == [3.0, 0.0] and out["a"] == 7.0


def test_a_precondition_with_a_negated_size_is_checked():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    assert -n < -2\n"
        "    assert (-n) / 2 < 0\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
    )
    assert run_proc(p, backend="interp", n=3, x=np.zeros(3, np.float32))["x"].tolist() == [1.0] * 3
    with pytest.raises(InterpError, match="procedure precondition failed: -n < -2"):
        run_proc(p, backend="interp", n=2, x=np.zeros(2, np.float32))


def test_make_random_args_needs_every_size():
    p = proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    x[0] = 1.0\n")
    with pytest.raises(InterpError, match="size_env is missing a value for 'n'"):
        make_random_args(p, {})


def test_check_equiv_reports_a_difference():
    one = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    two = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 2.0\n")
    assert check_equiv(one, one, {}) and not check_equiv(one, two, {})


def test_the_stride_of_a_scalar_is_one_on_both_engines():
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    x[0] = stride(t, 0)\n")
    for backend in ("interp", "compiled"):
        assert run_proc(p, backend=backend, x=np.zeros(4, np.float32))["x"][0] == 1.0


def test_a_window_of_a_scalar_argument_is_refused_by_both_engines(redeclare):
    from repro.interp import CompileError, compile_proc

    # the parser refuses a window of a scalar: declare `a` one past it
    p = redeclare(proc_from_source("def f(a: f32[1], x: f32[4] @ DRAM):\n    w = a[0:1]\n    x[0] = w[0]\n"), "a")
    with pytest.raises(InterpError, match="cannot window the non-buffer value a"):
        run_proc(p, backend="interp", a=2.0, x=np.zeros(4, np.float32))
    with pytest.raises(CompileError, match="window of scalar"):
        compile_proc(p)
