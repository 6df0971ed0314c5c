"""Schedule an int8 matmul for the Gemmini accelerator (Section 6.1.2).

The schedule stages tiles through the scratchpad/accumulator and maps loop
nests onto Gemmini instructions.  Its last step — hoisting the configuration
write out of the tile loops with the user-level `hoist_stmt` schedule of
Figure 5 — is refused today; `apply_traced` shows the `recovered` entry.

Run with:  python examples/gemmini_matmul.py
"""

from __future__ import annotations

import numpy as np

from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.interp import run_proc
from repro.perf import GEMMINI_SPEC, CostModel

kernel = make_matmul_kernel(K=64)
scheduled = matmul_schedule().apply(kernel)

print(scheduled)

# correctness: compare against numpy (scale = 1, ReLU applied)
N = M = 32
A = np.random.randint(-4, 5, size=(N, 64)).astype(np.int32)
B = np.random.randint(-4, 5, size=(64, M)).astype(np.int32)
C = np.zeros((N, M), dtype=np.int32)
run_proc(scheduled, N=N, M=M, scale=1.0, A=A, B=B, C=C)
ref = np.maximum(A @ B, 0)
assert np.allclose(C, ref), "gemmini matmul mismatch"
print("\nGemmini-scheduled matmul matches numpy (with ReLU) ✓")

cost = CostModel(GEMMINI_SPEC)
naive = cost.runtime_cycles(kernel, {"N": 256, "M": 256})
sched = cost.runtime_cycles(scheduled, {"N": 256, "M": 256})
print(f"modelled speedup over the unscheduled kernel: {naive / sched:.1f}x")
