"""The scheduled level-1/2 vector tails on every engine.

A tail loop ``for ji in seq(0, N % 8)`` bounds its iterator by its trip, so
its lane index ``(ji + 8 * (N / 8)) % 8`` simplifies to ``ji`` and the NumPy
engine folds sgemv_n's whole row loop.  The differential runs the tree
interpreter, the NumPy engine and, where ``cc`` is present, the C backend on
the same inputs, at sizes whose every residue mod 8 (so mod 2, the row jam)
is taken by each dimension.
"""
from __future__ import annotations

import pytest

from repro.blas.schedules import scheduled_level1, scheduled_level2
from repro.interp import compiled_source, make_random_args, run_proc
from repro.machines import AVX2, AVX512

MACHINES = {"AVX2": AVX2, "AVX512": AVX512}
# M takes every residue mod 8 once, and so does N, each beside a different
# residue of the other; N crosses one AVX-512 vector in half of them
GEMV_SIZES = [{"M": 9 + r, "N": (3 * r + 2) % 8 + 1 + 16 * (r % 2)} for r in range(8)]
SQUARE_SIZES = [{"N": n} for n in range(9, 25)]
CASES = [
    ("sgemv_n", scheduled_level2, GEMV_SIZES),
    ("dgemv_n", scheduled_level2, GEMV_SIZES),
    ("strmv_lnn", scheduled_level2, SQUARE_SIZES),
    ("sdot", scheduled_level1, [{"n": s["N"]} for s in SQUARE_SIZES]),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("name, schedule, sizes", CASES, ids=[c[0] for c in CASES])
def test_a_vector_tail_agrees_on_every_engine(name, schedule, sizes, machine, threads):
    proc = schedule(name, MACHINES[machine])
    assert "% 8]" not in str(proc) and "% 16]" not in str(proc)
    for size in sizes:
        run_proc(proc, backend="differential", threads=threads, **make_random_args(proc, size, seed=sum(size.values())))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_sgemv_n_runs_no_loop_in_python(machine):
    assert "in range(" not in compiled_source(scheduled_level2("sgemv_n", MACHINES[machine]))
