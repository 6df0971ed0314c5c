"""The NumPy engine's runtime helpers and the externs only the Gemmini and
Halide kernels' C side uses, each checked against the tree interpreter."""
from __future__ import annotations

import numpy as np

from repro import obs, proc_from_source
from repro.interp import compiled_source, run_proc

STRIDES = proc_from_source(
    "def strides(A: f32[3, 4, 5] @ DRAM, out: f32[3] @ DRAM):\n"
    "    out[0] = stride(A, 1)\n"
    "    h(A[0:2, 1, 0:5], out[1:3])\n",
    {"h": proc_from_source(
        "def h(w: [f32][2, 5] @ DRAM, o: [f32][2] @ DRAM):\n"
        "    o[0] = stride(w, 0)\n"
        "    o[1] = stride(w, 1)\n"
    )},
)

EXTERNS = proc_from_source(
    "def externs(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, z: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[i] = select(x[i], 0.0, x[i], -x[i])\n"
    "    for i in seq(0, n):\n"
    "        z[i] = clamp(x[i] * 100.0)\n"
)


def _both(p, **args):
    """Run ``p`` on the compiled engine and on the tree interpreter; return
    both sets of outputs."""
    outs = []
    for backend in ("compiled", "interp"):
        fresh = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in args.items()}
        outs.append(run_proc(p, backend=backend, **fresh))
    assert not obs.events()  # the compiled run was not a fallback
    return outs


def test_stride_reads_through_an_inlined_window():
    # stride(w, 0) and stride(w, 1) of the window A[0:2, 1, 0:5] are the
    # strides of A's dimensions 0 and 2: the point dimension is skipped
    compiled, interp = _both(STRIDES, A=np.zeros((3, 4, 5), np.float32), out=np.zeros(3, np.float32))
    assert "_stride(" in compiled_source(STRIDES)
    np.testing.assert_array_equal(compiled["out"], [5, 20, 1])
    np.testing.assert_array_equal(compiled["out"], interp["out"])


def test_select_and_clamp_agree_with_the_interpreter():
    x = np.linspace(-3.0, 3.0, 13, dtype=np.float32)
    compiled, interp = _both(EXTERNS, n=13, x=x, y=np.zeros(13, np.float32), z=np.zeros(13, np.float32))
    np.testing.assert_allclose(compiled["y"], np.abs(x))
    np.testing.assert_allclose(compiled["z"], np.clip(x * 100.0, -128.0, 127.0))
    for name in ("y", "z"):
        np.testing.assert_array_equal(compiled[name], interp[name])
