"""OpenMP lowering in the native C backend: pragma emission, toolchain
probing, artifact-cache keying (the regression pinned by the dead-pragma fix),
and the ``omp-missing`` degradation."""
from __future__ import annotations

import numpy as np
import pytest

from repro import obs, proc
from repro.backend.codegen import CodegenOptions, proc_to_c
from repro.backend.native import artifact_key, find_cc, openmp_supported
from repro.guard.faults import inject
from repro.interp import run_proc
from repro.lang import *  # noqa: F401,F403
from repro.primitives import parallelize_loop

pytestmark = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")


@proc
def _axpy(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]


@proc
def _dot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, out: f32[1] @ DRAM):
    for i in seq(0, n):
        out[0] += x[i] * y[i]


def _axpy_args(n=311, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n).astype(np.float32)
    y = rng.uniform(-1, 1, n).astype(np.float32)
    return n, x, y, y + np.float32(2.0) * x


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------


def test_par_map_emits_parallel_for_pragma():
    p = parallelize_loop(_axpy, "i")
    src = proc_to_c(p, options=CodegenOptions(openmp=True))
    assert "#pragma omp parallel for" in src
    assert "reduction" not in src  # disjoint writes need no clause


def test_par_reduction_emits_reduction_clause():
    p = parallelize_loop(_dot, "i")
    src = proc_to_c(p, options=CodegenOptions(openmp=True))
    assert "#pragma omp parallel for" in src
    assert "reduction(+:" in src


def test_pragma_requires_openmp_option():
    # without openmp in the options the par loop compiles sequentially —
    # the pragma must never leak into a non-OpenMP build
    p = parallelize_loop(_axpy, "i")
    src = proc_to_c(p, options=CodegenOptions())
    assert "#pragma omp" not in src


def test_openmp_option_participates_in_codegen_key():
    assert CodegenOptions(openmp=True).key() != CodegenOptions().key()
    assert "-fopenmp" in CodegenOptions(openmp=True).cflags()
    assert "-fopenmp" not in CodegenOptions().cflags()


# ---------------------------------------------------------------------------
# Artifact keying (regression: a par kernel must never share a cached .so
# with its sequential twin, or a stale sequential artifact silently wins)
# ---------------------------------------------------------------------------


def test_par_kernel_artifact_key_differs_from_sequential_twin():
    if not openmp_supported(find_cc()):
        pytest.skip("toolchain lacks -fopenmp: both twins compile sequentially")
    assert artifact_key(parallelize_loop(_axpy, "i")) != artifact_key(_axpy)


def test_artifact_key_tracks_omp_availability():
    par = parallelize_loop(_axpy, "i")
    with_omp = artifact_key(par)
    with inject("omp-missing", times=10):
        without = artifact_key(par)
    if openmp_supported(find_cc()):
        assert with_omp != without
    else:
        assert with_omp == without


# ---------------------------------------------------------------------------
# The toolchain probe
# ---------------------------------------------------------------------------


def test_probe_is_memoized_per_compiler():
    cc = find_cc()
    first = openmp_supported(cc)
    assert openmp_supported(cc) is first


def test_probe_rejects_broken_compiler():
    assert openmp_supported("/nonexistent/cc") is False


# ---------------------------------------------------------------------------
# Execution + the omp-missing degradation
# ---------------------------------------------------------------------------


def test_c_backend_runs_par_kernel_correctly():
    p = parallelize_loop(_axpy, "i")
    for t in (1, 2, 8):
        n, x, y, want = _axpy_args(seed=t)
        run_proc(p, n, 2.0, x, y, backend="c", threads=t)
        np.testing.assert_allclose(y, want, rtol=1e-6)


def test_omp_missing_degrades_to_sequential_c_with_event():
    p = parallelize_loop(_axpy, "i")
    n, x, y, want = _axpy_args()
    with inject("omp-missing", times=10):
        run_proc(p, n, 2.0, x, y, backend="c", threads=4)
    np.testing.assert_allclose(y, want, rtol=1e-6)
    assert any(e.reason == "omp-missing" and e.stage == "c-par->c-seq" for e in obs.events())
