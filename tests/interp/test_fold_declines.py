"""Every reason the NumPy engine keeps a loop in Python, by the program that
triggers it: ``compiled_source`` names the reason in a ``# not folded:``
comment, and the differential backend checks that the loop it kept still
computes what the tree interpreter computes."""
from __future__ import annotations

import re

import pytest

from repro import new_config, proc_from_source
from repro.interp import compiled_source, make_random_args, run_proc
from repro.ir.externs import register_extern
from repro.ir.types import index_t

SIG = (
    "def f(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM, A: f32[n, n] @ DRAM, k: i32[n] @ DRAM):\n"
    "    assert n >= 8\n"
)
BUMP = proc_from_source("def bump(d: [f32][1] @ DRAM):\n    d[0] = d[0] + 1.0\n")
CFG = new_config("fold_cfg", [("k", index_t)])
ENV = {"bump": BUMP, "fold_cfg": CFG}
register_extern("fold_sq", 1, lambda v: v * v, "", cost=1.0)  # no NumPy template

CASES = [
    # (body, the reason, whether the program runs on both engines: a register
    # written past its width fails on both; an index-typed allocation used in
    # an index fails on the NumPy engine only, an open defect)
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n        bump(t[0:1])\n        x[i] = t\n",
     "t is windowed or passed by reference", True),
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n", "empty loop body", True),
    ("    t: f32 @ DRAM\n    for i in seq(0, n):\n        t = x[i]\n        y[i] = t\n",
     "scalar t carries a value between iterations", True),
    ("    for i in seq(0, n):\n        t: index @ DRAM\n        t = 2\n        x[i + t - 2] = 1.0\n",
     "index offset varies inside the loop", False),
    ("    for i in seq(0, n):\n        if i < x[0]:\n            y[i] = 1.0\n", "guard bound is read from a buffer", True),
    ("    for i in seq(0, n):\n        x[n - 1 - i] = 1.0\n", "negative stride", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        if i < 4:\n            v[0] = x[i]\n        y[i] = 1.0\n",
     "register access under a guard", True),
    ("    for i in seq(0, 8):\n        v: f32[8] @ DRAM\n        v[i] = x[i]\n",
     "register v lane depends on the outer iterator", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        v[9] = x[i]\n", "register v lane out of range", False),
    ("    for i in seq(0, n):\n        if i < 4:\n            y[i] = i\n", "iterator value read under a guard", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        y[i] = v\n", "whole-register read of v", False),
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n        y[i] = t\n        t = 1.0\n",
     "scalar t read before assigned, or under a guard", True),
    ("    for i in seq(0, n):\n        y[i] = x[i] < 2.0 and x[i] > 0.0\n", "boolean 'and' has no whole-array form", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        v = x[i]\n", "whole-register write of v", False),
    ("    for i in seq(0, n):\n        y[0] = x[i]\n", "y is written at an iterator-invariant index", True),
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n        t += x[i]\n        y[i] = t\n",
     "scalar t reduced before assigned", True),
    ("    for i in seq(0, n):\n        y[0] += x[i]\n        x[0] = 1.0\n", "x is written at an iterator-invariant index", True),
    ("    for i in seq(0, n):\n        A[i, i] = 1.0\n", "an iterator strides two dimensions of A", True),
    ("    for i in seq(0, n):\n        if x[i] < 3.0:\n            x[i] = 1.0\n",
     "guard is not an affine bound on the iterator", True),
    ("    for i in seq(0, n):\n        y[i] = fold_sq(x[i])\n", "extern fold_sq has no whole-array template", True),
    ("    for i in seq(0, n):\n        x[i] = fold_cfg.k\n", "ReadConfig expression", False),
    ("    for i in seq(0, n):\n        for j in seq(0, 8):\n            A[i, 0] = x[j]\n",
     "every lane writes the same element of A", True),
    ("    for i in seq(0, n):\n        y = x[i]\n", "whole-buffer write of y", True),
    ("    for i in seq(0, n):\n        y[0] += x[i]\n        x[i] = y[0]\n",
     "y is reduced at an invariant index and accessed otherwise", True),
    ("    for i in seq(0, n):\n        y[i] = x\n", "whole-buffer read of x", False),
    # offsets of different forms (n - 1 and a constant) are not compared, so
    # the two never count as disjoint
    ("    for i in seq(0, n):\n        A[i, n - 1] = A[i, 0] * 2.0\n", "accesses to A overlap within an iteration", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        for j in seq(0, 8):\n            v[0] = x[i]\n"
     "        y[i] = v[0]\n", "every lane writes the same element of v", True),
]


@pytest.mark.parametrize("body, reason, runs", CASES, ids=[c[1] for c in CASES])
def test_a_loop_kept_in_python_says_why(body, reason, runs):
    p = proc_from_source(SIG + body, ENV)
    assert reason in re.findall(r"# not folded: (.*)", compiled_source(p))
    if runs:
        args = make_random_args(p, {"n": 9}, seed=4)
        args["k"][:] = 1
        run_proc(p, backend="differential", **args)


@pytest.mark.parametrize("body", [
    "    for i in seq(0, n):\n        pass\n        x[i] = 1.0\n        for j in seq(0, 0):\n            x[j] = 2.0\n",
    "    for i in seq(0, n):\n        for j in seq(0, 4):\n            pass\n            A[i, j] = 1.0\n"
    "        if i < 4:\n            pass\n            x[i] = 2.0\n",
    "    for i in seq(0, n):\n        if i <= 3:\n            x[i] = 1.0\n",
    "    for i in seq(0, n):\n        y[i] = True\n",
    "    for i in seq(0, n):\n        for j in seq(0, 8):\n            A[i, j] = i + j\n",
    "    for i in seq(0, n):\n        y[i] = fold_sq(a)\n",
    "    for i in seq(0, n):\n        t: f32 @ DRAM\n        t = x[i]\n        t += y[i]\n        x[i] = t\n",
    "    t: f32 @ DRAM\n    bump(t[0:1])\n    for i in seq(0, n):\n        x[i] = t\n",
    "    for i in seq(0, n):\n        x[i] = A[n - 9, i]\n",
])
def test_a_loop_with_empty_parts_and_inclusive_guards_folds(body):
    p = proc_from_source(SIG + body, ENV)
    assert "# not folded" not in compiled_source(p)
    run_proc(p, backend="differential", **make_random_args(p, {"n": 9}, seed=4))


def test_a_guard_that_is_not_a_comparison_is_kept_in_python():
    p = proc_from_source(SIG + "    for i in seq(0, n):\n        if i == 2:\n            x[i] = 1.0\n", ENV)
    assert "guard is not an affine bound on the iterator" in re.findall(r"# not folded: (.*)", compiled_source(p))
    run_proc(p, backend="differential", **make_random_args(p, {"n": 9}, seed=4))
