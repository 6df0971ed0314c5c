"""Parallel differential sweep: every BLAS level-1/2 and Halide kernel with a
legal ``parallelize_loop`` applied must reproduce the sequential results
across the compiled and C engines for thread counts 1, 2, and 8.

The determinism contract under test:

* **maps** (iterations write disjoint elements) — bit-identical to the
  sequential compiled run at every thread count;
* **reductions** (privatized accumulators) — bit-identical *across* thread
  counts (fixed partition + ordered combine) and within tolerance of the
  tree-interpreter oracle;
* **C backend** — within oracle tolerance at every thread count (OpenMP
  reduction order is implementation-defined, so the C leg only claims
  tolerance for reductions).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro import obs, proc_from_source
from repro.analysis.effects import accesses_of
from repro.backend.codegen import CodegenOptions, emit_unit
from repro.backend.native import find_cc
from repro.blas import (
    LEVEL1_KERNELS,
    LEVEL2_KERNELS,
    all_level1_names,
    all_level2_names,
)
from repro.errors import SchedulingError
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import (
    clear_compile_cache,
    compile_proc,
    make_random_args,
    run_proc,
)
from repro.ir import nodes as N
from repro.ir.build import collect_allocs, used_syms_expr
from repro.machines import AVX512
from repro.primitives import parallelize_loop

THREADS = (1, 2, 8)
L1_SIZES = {"n": 173}  # not a multiple of any vector width or chunk count
L2_SIZES = {"M": 40, "N": 29}


def _l2_sizes(name):
    return dict(L2_SIZES) if ("gemv" in name or "ger" in name) else {"N": 33}


def _outer_loop(p):
    for s in p._root.body:
        if isinstance(s, N.For):
            return s
    return None


def _parallelized(p):
    """The procedure with its outermost loop parallelized, or None when the
    safety check (rightly) declines it."""
    loop = _outer_loop(p)
    if loop is None:
        return None
    try:
        return parallelize_loop(p, loop.iter.name)
    except SchedulingError:
        return None


def _is_reduction(p):
    """Does the outermost loop accumulate into an iterator-invariant cell
    (i.e. will the engine privatize rather than share)?"""
    loop = _outer_loop(p)
    local = {a.name for a in collect_allocs(loop.body)}
    for a in accesses_of(loop.body):
        if a.buf in local or not a.is_write():
            continue
        if a.idx is None or not any(
            loop.iter in used_syms_expr(ix) for ix in a.idx
        ):
            return True
    return False


def _tensors(args):
    return {k: v for k, v in args.items() if isinstance(v, np.ndarray)}


def _run(p, size_env, backend, threads, seed=0):
    args = make_random_args(p, size_env, seed=seed)
    run_proc(p, backend=backend, threads=threads, **args)
    return _tensors(args)


def _check_compiled_matrix(seq_proc, par_proc, size_env):
    """The compiled-engine legs of the contract, plus the >0-parallel-loops
    stats assertion on the clean path."""
    oracle = _run(seq_proc, size_env, "interp", None)
    seq = _run(seq_proc, size_env, "compiled", 1)
    obs.reset("par.")
    runs = {t: _run(par_proc, size_env, "compiled", t) for t in THREADS}
    assert obs.count("par.par_loops") > 0, "par loop never dispatched"

    reduction = _is_reduction(seq_proc)
    first = runs[THREADS[0]]
    for t in THREADS[1:]:
        for name, v in runs[t].items():
            assert np.array_equal(v, first[name]), (
                f"{seq_proc.name}: argument {name!r} differs between "
                f"threads={THREADS[0]} and threads={t}"
            )
    for name, v in first.items():
        if reduction:
            np.testing.assert_allclose(
                v, oracle[name], rtol=1e-4, atol=1e-5, equal_nan=True,
                err_msg=f"{seq_proc.name}: parallel reduction diverges from oracle on {name!r}",
            )
        else:
            assert np.array_equal(v, seq[name]), (
                f"{seq_proc.name}: parallel map is not bit-identical to the "
                f"sequential compiled run on {name!r}"
            )


def _check_c_matrix(seq_proc, par_proc, size_env):
    oracle = _run(seq_proc, size_env, "interp", None)
    for t in THREADS:
        got = _run(par_proc, size_env, "c", t)
        assert not obs.count("fallback.codegen-declined"), (
            f"{seq_proc.name}: C backend declined the parallel kernel"
        )
        for name, v in got.items():
            np.testing.assert_allclose(
                v, oracle[name], rtol=1e-4, atol=1e-5, equal_nan=True,
                err_msg=f"{seq_proc.name}: C threads={t} diverges from oracle on {name!r}",
            )


# ---------------------------------------------------------------------------
# BLAS
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", all_level1_names())
def test_level1_parallel_differential(name):
    p = LEVEL1_KERNELS[name]
    par = _parallelized(p)
    if par is None:
        pytest.skip(f"{name}: outer loop carries dependencies")
    _check_compiled_matrix(p, par, L1_SIZES)


@pytest.mark.parametrize("name", all_level2_names())
def test_level2_parallel_differential(name):
    p = LEVEL2_KERNELS[name]
    par = _parallelized(p)
    if par is None:
        pytest.skip(f"{name}: outer loop carries dependencies")
    _check_compiled_matrix(p, par, _l2_sizes(name))


@pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name", ["saxpy", "sdot", "sasum", "sscal"])
def test_level1_parallel_c_backend(name):
    p = LEVEL1_KERNELS[name]
    par = _parallelized(p)
    assert par is not None
    _check_c_matrix(p, par, L1_SIZES)


@pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name", ["sgemv_n", "sgemv_t", "sger"])
def test_level2_parallel_c_backend(name):
    p = LEVEL2_KERNELS[name]
    par = _parallelized(p)
    assert par is not None
    _check_c_matrix(p, par, _l2_sizes(name))


# ---------------------------------------------------------------------------
# Halide (the scheduled pipelines contain a real `parallel("y")` step)
# ---------------------------------------------------------------------------

H, W = 32, 256  # the kernels assert H % 32 == 0 and W % 256 == 0
IMAGE_SIZES = {"H": H, "W": W}


def _halide_par_counters(scheduled, threads):
    args = make_random_args(scheduled, IMAGE_SIZES)
    obs.reset("par.")
    run_proc(scheduled, backend="compiled", threads=threads, **args)
    return _tensors(args), obs.counters("par.")


@pytest.mark.parametrize(
    "make, schedule",
    [(make_blur, blur_schedule), (make_unsharp, unsharp_schedule)],
    ids=["make_blur-schedule", "make_unsharp-schedule"],
)
def test_halide_scheduled_parallel_differential(make, schedule):
    scheduled = make() >> schedule(AVX512)
    oracle = make_random_args(make(), IMAGE_SIZES)
    run_proc(make(), backend="interp", **oracle)
    oracle = _tensors(oracle)

    runs = {}
    for t in THREADS:
        got, stats = _halide_par_counters(scheduled, t)
        assert stats["par_loops"] > 0, "scheduled pipeline never dispatched its par loop"
        runs[t] = got
    first = runs[THREADS[0]]
    for t in THREADS[1:]:
        for name, v in runs[t].items():
            assert np.array_equal(v, first[name]), (
                f"argument {name!r} differs between threads={THREADS[0]} and threads={t}"
            )
    for name, v in first.items():
        np.testing.assert_allclose(
            v, oracle[name], rtol=1e-4, atol=1e-5,
            err_msg=f"scheduled pipeline diverges from oracle on {name!r}",
        )


# ---------------------------------------------------------------------------
# One par rule: the engines agree on what is parallel, and a source-level
# `par(lo, hi)` is proven at lowering, not trusted
# ---------------------------------------------------------------------------

# Kernels whose par loop both engines *prove* legal but OpenMP cannot express:
# a reduction into more than one loop-invariant cell (NumPy privatises the
# whole array; there is no single reduction(+:...) clause for it).
OMP_MECHANISM_GAPS = {"sgemv_t", "dgemv_t"}

_AGREEMENT_CASES = {
    **{name: (lambda n=name: _parallelized(LEVEL1_KERNELS[n])) for name in all_level1_names()},
    **{name: (lambda n=name: _parallelized(LEVEL2_KERNELS[n])) for name in all_level2_names()},
    "blur": lambda: make_blur() >> blur_schedule(AVX512),
    "unsharp": lambda: make_unsharp() >> unsharp_schedule(AVX512),
}


@pytest.mark.parametrize("name", sorted(_AGREEMENT_CASES))
def test_engines_agree_on_what_is_parallel(name):
    par = _AGREEMENT_CASES[name]()
    if par is None:
        pytest.skip(f"{name}: outer loop carries dependencies")
    numpy_parallel = compile_proc(par, threads=2).par_loops > 0
    c_source = emit_unit(par, CodegenOptions(openmp=True)).source
    c_parallel = "#pragma omp parallel for" in c_source
    declines = [e for e in obs.events() if e.reason == "par-unlowerable"]
    assert numpy_parallel, f"{name}: a legal par loop fell to sequential NumPy"
    if name in OMP_MECHANISM_GAPS:
        assert not c_parallel
        assert [(e.stage, e.detail) for e in declines] == [
            ("c-par->c-seq", "reduction into y has no single-clause OpenMP form")
        ]
    else:
        assert c_parallel, f"{name}: NumPy dispatches the loop but C emitted no pragma"
        assert not declines


# the three illegal shapes, written with `par(...)` in source (the frontend
# accepts them unproven): a scan, an invariant-index WAW, a shifted WAR
_UNPROVEN_PAR = {
    "scan": "for i in par(1, n):\n        y[i] = y[i - 1] + x[i] * x[i] * x[i]",
    "waw": "for i in par(0, n):\n        y[0] = x[i]",
    "war": "for i in par(0, n - 1):\n        y[i] = y[i + 1] + x[i]",
}
_UNPROVEN_N = 1 << 15  # long enough that racing chunks would interleave


def _unproven(shape):
    return proc_from_source(
        f"def {shape}(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n    {_UNPROVEN_PAR[shape]}\n"
    )


def _unproven_args(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, _UNPROVEN_N).astype(np.float32)
    y = rng.uniform(0, 1, _UNPROVEN_N).astype(np.float32)
    return x, y


@pytest.mark.parametrize("shape", sorted(_UNPROVEN_PAR))
def test_unproven_source_par_runs_sequentially(shape):
    p = _unproven(shape)
    x, want = _unproven_args()
    run_proc(p, _UNPROVEN_N, x, want, backend="interp")
    legs = [("compiled", t) for t in THREADS]
    if find_cc() is not None:
        legs += [("c", 1), ("c", 2)]
    for backend, t in legs:
        x, y = _unproven_args()
        run_proc(p, _UNPROVEN_N, x, y, backend=backend, threads=t)
        np.testing.assert_allclose(
            y, want, rtol=1e-5, err_msg=f"{shape}: {backend} threads={t} raced"
        )


@pytest.mark.parametrize("shape", sorted(_UNPROVEN_PAR))
def test_unproven_source_par_is_recorded_by_both_engines(shape, tolerates):
    tolerates()
    p = _unproven(shape)
    clear_compile_cache()  # content-addressed: the event is recorded once per compile
    assert compile_proc(p, threads=2).par_loops == 0
    assert "#pragma omp" not in emit_unit(p, CodegenOptions(openmp=True)).source
    got = {(e.stage, e.detail) for e in obs.events() if e.reason == "par-unlowerable"}
    assert got == {
        ("par->seq", "iterations do not provably commute"),
        ("c-par->c-seq", "iterations do not provably commute"),
    }
