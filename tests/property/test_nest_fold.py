"""The NumPy engine folds a rectangular loop nest, not one loop.

Hypothesis draws nests of depth 2-4 over ``A: f32[M, N]``: the row loop
over ``M`` (plain, ``par``, or split ``2 * io + ii`` with its ``M % 2``
tail) around the column loop over ``N`` (plain, ``8 * jo + ji`` with an
``N % 8`` tail, or ``16 * jo + 8 * ju + ji`` with ``N / 8 % 2`` and
``N % 8`` tails; every tail may run zero times).  Bodies mix maps,
reductions into cells the row loop does not index (``y[j] += ...``) and ones
the column loops do not (``z[i] += ...``), a scalar register allocated per
row and a vector register allocated per column chunk.  Every nest must fold
completely — no loop left to Python — and the differential backend must
agree with the tree interpreter (and C) at one and two threads.  sger and
blur, the nests this fold exists for, must compile without a kept loop."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import proc_from_source
from repro.blas.schedules import scheduled_level2
from repro.errors import SchedulingError
from repro.halide import blur_schedule, make_blur
from repro.interp import compile_proc, compiled_source, run_proc
from repro.machines import AVX2, AVX512
from repro.primitives import parallelize_loop

SIG = "M: size, N: size, A: f32[M, N] @ DRAM, B: f32[M, N] @ DRAM, x: f32[N] @ DRAM, s: f32[M] @ DRAM, y: f32[N] @ DRAM, z: f32[M] @ DRAM"

#: the column loop's schemes: (loops, column index) per piece, each loop a
#: (name, trip count) pair
COLUMNS = {
    1: [([("j", "N")], "j")],
    2: [
        ([("jo", "N / 8"), ("ji", "8")], "8 * jo + ji"),
        ([("jt", "N % 8")], "8 * (N / 8) + jt"),
    ],
    3: [
        ([("jo", "N / 16"), ("ju", "2"), ("ji", "8")], "16 * jo + 8 * ju + ji"),
        ([("jm", "N / 8 % 2"), ("ji", "8")], "16 * (N / 16) + 8 * jm + ji"),
        ([("jt", "N % 8")], "8 * (N / 8) + jt"),
    ],
}
ROWS = {
    1: [([("i", "M")], "i")],
    2: [([("io", "M / 2"), ("ii", "2")], "2 * io + ii"), ([("it", "M % 2")], "2 * (M / 2) + it")],
}
#: innermost statements; {i} and {j} are the row and column indices
STMTS = {
    "map": "B[{i}, {j}] = A[{i}, {j}] * 2.0 + x[{j}]",
    "col_sum": "y[{j}] += A[{i}, {j}] * 0.5",
    "row_sum": "z[{i}] += A[{i}, {j}] * x[{j}]",
}


def _nest(rows: int, cols: int, stmts, scalar: bool, vector: bool) -> str:
    lines = []
    for row_loops, i in ROWS[rows]:
        depth = 1
        for name, trip in row_loops:
            lines.append("    " * depth + f"for {name} in seq(0, {trip}):")
            depth += 1
        scale = ""
        if scalar:  # a scalar register per row
            lines += ["    " * depth + "t: f32 @ DRAM", "    " * depth + f"t = s[{i}] + 1.0"]
            scale = " * t"
        for col_loops, j in COLUMNS[cols]:
            d = depth
            for k, (name, trip) in enumerate(col_loops):
                lane = k == len(col_loops) - 1 and trip == "8"
                if lane and vector:
                    # a vector register per column chunk, filled by one lane
                    # loop and read by the next
                    lines += ["    " * d + "r: f32[8] @ DRAM", "    " * d + f"for {name} in seq(0, 8):"]
                    lines.append("    " * (d + 1) + f"r[{name}] = A[{i}, {j}]{scale}")
                    lines.append("    " * d + f"for {name} in seq(0, 8):")
                    lines.append("    " * (d + 1) + f"B[{i}, {j}] = r[{name}] + x[{j}]")
                    break
                lines.append("    " * d + f"for {name} in seq(0, {trip}):")
                d += 1
            else:
                for kind in stmts:
                    lines.append("    " * d + STMTS[kind].format(i=i, j=j) + scale)
    return "\n".join(lines) + "\n"


_uid = [0]


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2)]),
    stmts=st.lists(st.sampled_from(sorted(STMTS)), min_size=1, max_size=3, unique=True),
    scalar=st.booleans(),
    vector=st.booleans(),
    par=st.booleans(),
    m=st.integers(1, 7),
    n=st.sampled_from([3, 8, 16, 21, 24, 40]),
    seed=st.integers(0, 2**16),
)
def test_a_rectangular_nest_folds_and_agrees(shape, stmts, scalar, vector, par, m, n, seed):
    rows, cols = shape
    _uid[0] += 1
    p = proc_from_source(f"def nest_{_uid[0]}({SIG}):\n" + _nest(rows, cols, stmts, scalar, vector))
    if par and rows == 1:
        try:
            p = parallelize_loop(p, "i")
        except SchedulingError:
            pass  # a row reduction the checker does not admit stays seq
    rng = np.random.default_rng(seed)
    for threads in (1, 2):
        src = compiled_source(p, threads=threads)
        assert "in range(" not in src, src
        args = {
            "M": m,
            "N": n,
            "A": rng.uniform(-1, 1, (m, n)).astype(np.float32),
            "B": np.zeros((m, n), np.float32),
            "x": rng.uniform(-1, 1, n).astype(np.float32),
            "s": rng.uniform(-1, 1, m).astype(np.float32),
            "y": np.zeros(n, np.float32),
            "z": np.zeros(m, np.float32),
        }
        run_proc(p, backend="differential", threads=threads, **args)


@pytest.mark.parametrize("machine", [AVX2, AVX512], ids=["AVX2", "AVX512"])
@pytest.mark.parametrize("kernel", ["sger", "blur"])
def test_sger_and_blur_keep_no_loop_in_python(kernel, machine):
    p = scheduled_level2("sger", machine) if kernel == "sger" else blur_schedule(machine).apply(make_blur())
    for threads in (1, 2):
        src = compile_proc(p, threads=threads).source
        assert not re.findall(r"# not folded: (.*)", src), src
