"""Reproduce Halide-style scheduling (Section 6.3.2): blur with nominal
references, tiling, a parallel row loop and vectorisation — all built as a
user-level library on top of cursors.

Run with:  python examples/halide_blur.py
"""

from __future__ import annotations

import numpy as np

from repro.halide import blur_schedule, make_blur
from repro.interp import run_proc
from repro.machines import AVX512
from repro.perf import AVX512_SPEC, CostModel, library_model

blur = make_blur()
scheduled = blur_schedule(AVX512).apply(blur)

print("scheduled blur:")
print(scheduled)

# correctness against a numpy reference
H, W = 32, 256
inp = np.random.rand(H + 2, W + 2).astype(np.float32)
out = np.zeros((H, W), dtype=np.float32)
run_proc(scheduled, H=H, W=W, inp=inp, out=out)

bx = (inp[:, :-2] + inp[:, 1:-1] + inp[:, 2:]) / 3.0
ref = (bx[:-2, :] + bx[1:-1, :] + bx[2:, :]) / 3.0
assert np.allclose(out, ref[:H, :W], rtol=1e-4), "blur output mismatch"
print("\nblur output matches the numpy reference ✓")

# modelled comparison against Halide (Figure 13a) — same flops/bytes model
# as benchmarks/bench_fig13_blur_unsharp.py: both pipeline stages count
cost = CostModel(AVX512_SPEC)
halide = library_model("Halide", 512)
sizes = {"H": 1920, "W": 2560}
ours = cost.runtime_cycles(scheduled, sizes)
flops = 4.0 * sizes["H"] * sizes["W"] + 4.0 * (sizes["H"] + 2) * sizes["W"]
bytes_moved = 4.0 * ((sizes["H"] + 2) * (sizes["W"] + 2) + sizes["H"] * sizes["W"])
theirs = halide.runtime_cycles(AVX512_SPEC, flops=flops, bytes_moved=bytes_moved)
print(f"\nmodelled runtime ratio (Halide / Exo 2): {theirs / ours:.2f}")
