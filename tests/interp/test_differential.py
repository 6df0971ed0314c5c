"""Differential coverage: compiled engine vs. tree interpreter on identical
random inputs, for every kernel in the BLAS level-1/2 and Halide suites —
both the unscheduled object code and the scheduled versions.

``backend="differential"`` runs both engines internally and raises
:class:`DifferentialError` on any tensor divergence beyond check_equiv
tolerances, so a bare ``run_proc`` call *is* the assertion.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.blas import (
    LEVEL1_KERNELS,
    LEVEL2_KERNELS,
    all_level1_names,
    all_level2_names,
    optimize_level_1,
    optimize_level_2_general,
)
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import make_random_args, run_proc
from repro.machines import AVX2, AVX512

L1_SIZES = {"n": 173}  # deliberately not a multiple of any vector width
L2_SIZES = {"M": 40, "N": 29}


def _l2_sizes(name):
    return dict(L2_SIZES) if ("gemv" in name or "ger" in name) else {"N": 33}


def _diff(proc, size_env, seed=0, inline=None, **extra):
    args = make_random_args(proc, size_env, seed=seed)
    args.update(extra)
    run_proc(proc, backend="differential", inline=inline, **args)


# ---------------------------------------------------------------------------
# BLAS, unscheduled object code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", all_level1_names())
def test_level1_unscheduled_differential(name):
    _diff(LEVEL1_KERNELS[name], L1_SIZES)


@pytest.mark.parametrize("name", all_level2_names())
def test_level2_unscheduled_differential(name):
    _diff(LEVEL2_KERNELS[name], _l2_sizes(name))


# ---------------------------------------------------------------------------
# BLAS, scheduled (vectorised + unrolled) versions — every kernel, both SIMD
# targets, with the compiled engine's cross-procedure inliner forced on AND
# forced off (the two compiled code paths are entirely different: inlined
# kernels run through the outer-loop vectoriser, non-inlined ones through
# recursively compiled @instr callees)
# ---------------------------------------------------------------------------

MACHINES = {"AVX2": AVX2, "AVX512": AVX512}


@pytest.fixture(scope="module", params=sorted(MACHINES))
def l1_machine_schedules(request):
    machine = MACHINES[request.param]
    out = {}
    for name, kernel in LEVEL1_KERNELS.items():
        prec = "f64" if name.startswith("d") else "f32"
        out[name] = optimize_level_1(kernel, "i", prec, machine, 2)
    return out


@pytest.fixture(scope="module", params=sorted(MACHINES))
def l2_machine_schedules(request):
    machine = MACHINES[request.param]
    out = {}
    for name, kernel in LEVEL2_KERNELS.items():
        prec = "f64" if name.startswith("d") else "f32"
        out[name] = optimize_level_2_general(kernel, "i", prec, machine, 2, 2)
    return out


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "noinline"])
@pytest.mark.parametrize("name", all_level1_names())
def test_level1_scheduled_differential(name, inline, l1_machine_schedules):
    _diff(l1_machine_schedules[name], L1_SIZES, inline=inline)


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "noinline"])
@pytest.mark.parametrize("name", all_level2_names())
def test_level2_scheduled_differential(name, inline, l2_machine_schedules):
    _diff(l2_machine_schedules[name], _l2_sizes(name), inline=inline)


# ---------------------------------------------------------------------------
# Halide suite
# ---------------------------------------------------------------------------

H, W = 32, 256  # the kernels assert H % 32 == 0 and W % 256 == 0


def _image_args(proc, **extra):
    args = make_random_args(proc, {"H": H, "W": W})
    args.update(extra)
    return args


def test_blur_unscheduled_differential():
    run_proc(make_blur(), backend="differential", **_image_args(make_blur()))


def test_blur_scheduled_differential():
    sched = make_blur() >> blur_schedule(AVX512)
    run_proc(sched, backend="differential", **_image_args(sched))


def test_unsharp_unscheduled_differential():
    p = make_unsharp()
    run_proc(p, backend="differential", **_image_args(p, amount=1.5))


def test_unsharp_scheduled_differential():
    sched = make_unsharp() >> unsharp_schedule(AVX512)
    run_proc(sched, backend="differential", **_image_args(sched, amount=1.5))


# ---------------------------------------------------------------------------
# Config-state comparison (Gemmini pipeline)
# ---------------------------------------------------------------------------


def test_gemmini_scheduled_differential_compares_config_state():
    from repro.gemmini import make_matmul_kernel, matmul_schedule

    kernel = make_matmul_kernel(K=16)
    sched = kernel >> matmul_schedule()
    rng = np.random.default_rng(7)
    N = M = 16
    args = dict(
        N=N,
        M=M,
        scale=1.0,
        A=rng.integers(-3, 4, size=(N, 16)).astype(np.int32),
        B=rng.integers(-3, 4, size=(16, M)).astype(np.int32),
        C=np.zeros((N, M), dtype=np.int32),
    )
    run_proc(sched, backend="differential", config_state={}, **args)


# ---------------------------------------------------------------------------
# Differential mode actually detects divergence
# ---------------------------------------------------------------------------


def test_differential_mode_detects_divergence(monkeypatch):
    from repro.interp import DifferentialError
    from repro.interp import compile as C

    p = LEVEL1_KERNELS["sscal"]
    engine = C.compile_proc(p)
    bad = C.CompiledProc(engine.name, engine.source, lambda ctx, n, alpha, x: None, 0, 0)
    monkeypatch.setattr(C, "compile_proc", lambda _p, **_kw: bad)
    args = make_random_args(p, {"n": 16})
    with pytest.raises(DifferentialError):
        run_proc(p, backend="differential", **args)


def test_differential_mode_refuses_to_degrade(monkeypatch):
    # if the compiled leg is unavailable the cross-check must fail loudly,
    # not silently compare the interpreter against itself
    from repro.interp import CompileError, DifferentialError
    from repro.interp import compile as C

    def boom(_p, **_kw):
        raise CompileError("forced")

    monkeypatch.setattr(C, "compile_proc", boom)
    p = LEVEL1_KERNELS["sscal"]
    args = make_random_args(p, {"n": 16})
    with pytest.raises(DifferentialError):
        run_proc(p, backend="differential", **args)
    # the plain compiled backend still falls back and succeeds
    run_proc(p, backend="compiled", **make_random_args(p, {"n": 16}))
