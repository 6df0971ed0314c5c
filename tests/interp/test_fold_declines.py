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
    # (body, the reason, whether the program runs on both engines: a whole
    # register or buffer used as a value, or a configuration read before any
    # write, fails on both; an index-typed allocation used in an index fails
    # on the NumPy engine only, an open defect)
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n        bump(t[0:1])\n        x[i] = t\n",
     "t is windowed or passed by reference", True),
    ("    for i in seq(0, n):\n        t: f32 @ DRAM\n", "empty loop body", True),
    ("    t: f32 @ DRAM\n    for i in seq(0, n):\n        t = x[i]\n        y[i] = t\n",
     "scalar t carries a value between iterations", True),
    ("    for i in seq(0, n):\n        t: index @ DRAM\n        t = 2\n        x[i + t - 2] = 1.0\n",
     "index offset varies inside the loop", False),
    ("    for i in seq(0, n):\n        if i < x[0]:\n            y[i] = 1.0\n", "guard bound is read from a buffer", True),
    ("    for i in seq(0, n):\n        x[n - 1 - i] = 1.0\n", "negative stride", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        y[i] = v\n", "whole-register read of v", False),
    ("    for i in seq(0, n):\n        y[i] = x[i] < 2.0 and x[i] > 0.0\n", "boolean 'and' has no whole-array form", True),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        v = x[i]\n", "whole-register write of v", False),
    ("    for i in seq(0, n):\n        y[0] = x[i]\n", "y is written at an iterator-invariant index", True),
    ("    for i in seq(0, n):\n        y[0] += x[i]\n        x[0] = 1.0\n", "x is written at an iterator-invariant index", True),
    ("    for i in seq(0, n):\n        if x[i] < 3.0:\n            x[i] = 1.0\n",
     "guard is not an affine bound on the iterator", True),
    ("    for i in seq(0, n):\n        y[i] = fold_sq(x[i])\n", "extern fold_sq has no whole-array template", True),
    ("    for i in seq(0, n):\n        x[i] = fold_cfg.k\n", "ReadConfig expression", False),
    ("    for i in seq(0, n):\n        for j in seq(0, 8):\n            A[i, 0] = x[j]\n",
     "every lane writes the same element of A", True),
    ("    for i in seq(0, n):\n        y = x[i]\n", "whole-buffer write of y", True),
    ("    for i in seq(0, n):\n        y[0] += x[i]\n        x[i] = y[0]\n",
     "accesses to y overlap between iterations", True),
    # lane j of iteration i adds into the cell lane j - 1 of iteration i + 1
    # adds into: one whole-array += would add once
    ("    for i in seq(0, n - 8):\n        for j in seq(0, 8):\n            y[i + j] += x[j]\n",
     "accesses to y overlap between iterations", True),
    # w[i] is x[i + 1]: each iteration reads what the one before it wrote
    ("    w = x[1:n]\n    for i in seq(0, n - 1):\n        w[i] = x[i] * 2.0\n",
     "accesses to x overlap between iterations", True),
    ("    for i in seq(0, n):\n        y[i] = x\n", "whole-buffer read of x", False),
    ("    for i in seq(0, n):\n        v: f32[8] @ DRAM\n        for j in seq(0, 8):\n            v[0] = x[i]\n"
     "        y[i] = v[0]\n", "every lane writes the same element of v", True),
    # lane j reads what lane j - 1 wrote
    ("    for i in seq(0, n):\n        for j in seq(0, 7):\n            A[i, j + 1] = A[i, j] * 2.0\n",
     "accesses to A overlap within an iteration", True),
    # a triangular nest: the inner loop's bounds move with the outer iterator
    ("    for i in seq(0, n):\n        for j in seq(0, i):\n            A[i, j] = x[j]\n",
     "bound of loop j varies inside the loop", True),
    # the sgemv_t shape: a register loads, updates and stores the same row
    # on every outer iteration, a dependence the outer axis carries
    ("    for i in seq(0, n):\n        for jo in seq(0, n / 4):\n            v: f32[4] @ DRAM\n"
     "            for ji in seq(0, 4):\n                v[ji] = A[0, 4 * jo + ji]\n"
     "            for ji in seq(0, 4):\n                v[ji] += x[i] * y[4 * jo + ji]\n"
     "            for ji in seq(0, 4):\n                A[0, 4 * jo + ji] = v[ji]\n",
     "A is written at an iterator-invariant index", True),
    # n x n iterations over operands of n elements
    ("    for i in seq(0, n):\n        for j in seq(0, n):\n            y[i] += x[j]\n",
     "iteration space is larger than the nest's operands", True),
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
    # the row loop's write and the statement after it share only i
    "    for i in seq(0, n):\n        for j in seq(0, n):\n            A[i, j] = x[j]\n        A[i, 0] = y[i]\n",
])
def test_a_loop_with_empty_parts_and_inclusive_guards_folds(body):
    p = proc_from_source(SIG + body, ENV)
    assert "# not folded" not in compiled_source(p)
    run_proc(p, backend="differential", **make_random_args(p, {"n": 9}, seed=4))


def test_a_guard_that_is_not_a_comparison_is_kept_in_python():
    p = proc_from_source(SIG + "    for i in seq(0, n):\n        if i == 2:\n            x[i] = 1.0\n", ENV)
    assert "guard is not an affine bound on the iterator" in re.findall(r"# not folded: (.*)", compiled_source(p))
    run_proc(p, backend="differential", **make_random_args(p, {"n": 9}, seed=4))
