"""Emitter paths the library kernels never take, each checked on all three
engines at once: ``backend="differential"`` runs the tree interpreter, the
NumPy engine and (toolchain permitting) the native C unit, and raises on any
disagreement.  Each test also pins the emitted construct itself, so a change
that stops taking the path is noticed too."""
from __future__ import annotations

import numpy as np

from repro import proc_from_source
from repro.backend.codegen import CodegenOptions, emit_unit
from repro.interp import compile_proc, make_random_args, run_proc


def _differential(proc, sizes, **extra):
    args = make_random_args(proc, sizes, seed=3)
    args.update(extra)
    return run_proc(proc, backend="differential", **args)


def test_an_if_with_an_else_lowers_to_c_on_all_three_engines():
    p = proc_from_source(
        "def clamp(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        if i < n / 2:\n"
        "            y[i] = x[i]\n"
        "        else:\n"
        "            y[i] = 2.0 * x[i]\n"
    )
    assert "} else {" in emit_unit(p).source
    out = _differential(p, {"n": 37})
    x, y = out["x"], out["y"]
    assert np.allclose(y[:18], x[:18]) and np.allclose(y[18:], 2.0 * x[18:])


def test_a_par_sum_into_a_scalar_gets_a_scalar_openmp_reduction_clause():
    p = proc_from_source(
        "def total(n: size, x: f32[n] @ DRAM, out: f32[1] @ DRAM):\n"
        "    acc: f32 @ DRAM\n"
        "    acc = 0.0\n"
        "    for i in par(0, n):\n"
        "        acc += x[i]\n"
        "    out[0] = acc\n"
    )
    source = emit_unit(p, CodegenOptions(openmp=True)).source
    assert "#pragma omp parallel for reduction(+:acc)" in source
    out = _differential(p, {"n": 301})
    assert np.isclose(out["out"][0], np.sum(out["x"], dtype=np.float64), rtol=1e-4)


def test_a_window_of_a_windowed_argument_composes_through_the_inliner():
    # ``B[1, 0:n, 0:n]`` reaches ``rows`` as a window with a point
    # dimension, and ``rows`` passes on ``y[1, 0:n]`` and ``y[0:n, 2]``: a
    # point and an interval of that window, composed onto ``B`` when the
    # NumPy engine inlines both calls
    scale = proc_from_source(
        "def scale(n: size, z: [f32][n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        z[i] = 3.0 * z[i]\n"
    )
    rows = proc_from_source(
        "def rows(n: size, y: [f32][n, n] @ DRAM):\n"
        "    scale(n, y[1, 0:n])\n"
        "    scale(n - 3, y[3:n, 2])\n",
        {"scale": scale},
    )
    p = proc_from_source(
        "def outer(n: size, B: f32[2, n, n] @ DRAM):\n"
        "    rows(n, B[1, 0:n, 0:n])\n",
        {"rows": rows},
    )
    assert compile_proc(p).inlined_calls >= 2
    args = make_random_args(p, {"n": 9}, seed=3)
    want = args["B"].copy()
    want[1, 1, :] *= 3.0
    want[1, 3:, 2] *= 3.0
    out = _differential(p, {"n": 9})
    assert np.allclose(out["B"], want, rtol=1e-6)


def test_inline_composes_windows_of_windowed_and_whole_arguments():
    # the inline primitive substitutes one level, so the callee's own calls
    # keep their window arguments, composed onto the caller's buffer
    from repro import inline
    from repro.interp import check_equiv

    scale = proc_from_source(
        "def scale(n: size, z: [f32][n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        z[i] = 3.0 * z[i]\n"
    )
    both = proc_from_source(
        "def both(n: size, y: [f32][n, n] @ DRAM):\n"
        "    scale(n, y[1, 0:n])\n"
        "    scale(n - 3, y[3:n, 2])\n",
        {"scale": scale},
    )
    rows = proc_from_source(
        "def rows(n: size, y: [f32][n, n] @ DRAM):\n"
        "    scale(n, y[1, 0:n])\n"
        "    both(n, y)\n",
        {"scale": scale, "both": both},
    )
    windowed = proc_from_source(
        "def outer(n: size, B: f32[2, n, n] @ DRAM):\n"
        "    rows(n, B[1, 0:n, 0:n])\n",
        {"rows": rows},
    )
    q = inline(windowed, "rows(_)")
    assert "scale(n, B[1, 0 + 1, 0 + 0:0 + n])" in str(q) and "both(n, B[1, 0:n, 0:n])" in str(q)
    assert check_equiv(windowed, q, {"n": 9})
    whole = proc_from_source(
        "def outer2(n: size, C: f32[n, n] @ DRAM):\n"
        "    rows(n, C)\n",
        {"rows": rows},
    )
    r = inline(whole, "rows(_)")
    assert "scale(n, C[1, 0:n])" in str(r) and "both(n, C)" in str(r)
    assert check_equiv(whole, r, {"n": 9})
    s = inline(q, "both(_)")
    assert "scale(n - 3, B[1, 0 + 3:0 + n, 0 + 2])" in str(s)
    assert check_equiv(windowed, s, {"n": 9})
