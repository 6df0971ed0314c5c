"""Fold parity: the single loop folder must leave no more loops to Python than
the two vectorisers it replaced.

``fold_parity.json`` was captured at the commit *before* the 1-D vectoriser was
deleted: per compiled kernel, ``scalar_loops`` (occurrences of ``in range(``
in ``CompiledProc.source`` — the loops left to the Python interpreter),
``fallback_stmts`` and ``par_loops``.  ``vector_loops`` is deliberately not
pinned: one newly folded nest replaces several inner folds.  ``oob_guards``
(occurrences of ``_oob(`` — the bounds guards the prover could not elide) was
captured at the commit *before* the lowerers' private affine analyser was
deleted in favour of ``analysis/linear``.  Regenerate only on purpose:
``PYTHONPATH=src python tests/interp/test_fold_parity.py --write``.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.blas import LEVEL1_KERNELS, LEVEL2_KERNELS, SGEMM, schedule_sgemm
from repro.blas.schedules import scheduled_level1, scheduled_level2
from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import compile_proc
from repro.machines import AVX2, AVX512

FIXTURE = Path(__file__).with_name("fold_parity.json")
MACHINES = {"AVX2": AVX2, "AVX512": AVX512}


def _catalogue():
    """(key, thunk) for every kernel of the census: each BLAS level-1/2 kernel
    unscheduled and scheduled for both machines, sgemm, blur, unsharp and the
    Gemmini matmul."""
    for level, kernels, scheduled in (
        ("l1", LEVEL1_KERNELS, scheduled_level1),
        ("l2", LEVEL2_KERNELS, scheduled_level2),
    ):
        for name in sorted(kernels):
            yield f"{level}/{name}/unscheduled", (lambda k=kernels[name]: k)
            for mname, m in MACHINES.items():
                yield f"{level}/{name}/{mname}", (lambda n=name, m=m, f=scheduled: f(n, m))
    for name, plain, sched in (
        ("sgemm", lambda: SGEMM, schedule_sgemm),
        ("blur", make_blur, lambda m: blur_schedule(m).apply(make_blur())),
        ("unsharp", make_unsharp, lambda m: unsharp_schedule(m).apply(make_unsharp())),
    ):
        yield f"{name}/unscheduled", plain
        for mname, m in MACHINES.items():
            yield f"{name}/{mname}", (lambda m=m, f=sched: f(m))
    yield "gemmini/unscheduled", (lambda: make_matmul_kernel(K=64))
    yield "gemmini/scheduled", (lambda: matmul_schedule().apply(make_matmul_kernel(K=64)))


def _measure(p) -> dict:
    eng = compile_proc(p, threads=2)
    return {
        "scalar_loops": eng.source.count("in range("),
        "oob_guards": eng.source.count("_oob("),
        "fallback_stmts": eng.fallback_stmts,
        "par_loops": eng.par_loops,
    }


CASES = dict(_catalogue())


@pytest.fixture(scope="module")
def parent():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_catalogue(parent):
    assert sorted(parent) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_no_loop_is_lost(key, parent):
    got, want = _measure(CASES[key]()), parent[key]
    assert got["scalar_loops"] <= want["scalar_loops"], f"{key}: a loop the parent folded now runs in Python"
    assert got["oob_guards"] <= want["oob_guards"], f"{key}: a guard the parent elided is back"
    assert got["fallback_stmts"] == want["fallback_stmts"]
    assert got["par_loops"] == want["par_loops"]


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/interp/test_fold_parity.py --write")
    rows = [f"  {json.dumps(k)}: {json.dumps(_measure(thunk()), sort_keys=True)}" for k, thunk in _catalogue()]
    FIXTURE.write_text("{\n" + ",\n".join(sorted(rows)) + "\n}\n")
