"""Direct ``backend="c"`` coverage: every BLAS level-1/2 kernel, the Halide
pipelines and the register-tiled sgemm, unscheduled and scheduled for both
SIMD targets, must agree with the tree interpreter when executed as compiled
native code."""
from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.backend.native import compile_native, find_cc
from repro.blas import (
    LEVEL1_KERNELS,
    LEVEL2_KERNELS,
    all_level1_names,
    all_level2_names,
    optimize_level_1,
    optimize_level_2_general,
    schedule_sgemm,
    sgemm_micro_kernel,
)
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import make_random_args, run_proc
from repro.machines import AVX2, AVX512

pytestmark = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")

L1_SIZES = {"n": 173}  # not a multiple of any vector width: exercises tails
L2_SIZES = {"M": 40, "N": 29}
MACHINES = {"AVX2": AVX2, "AVX512": AVX512}


def _l2_sizes(name):
    return dict(L2_SIZES) if ("gemv" in name or "ger" in name) else {"N": 33}


def _check_c_vs_interp(proc, size_env, seed=0, **extra):
    """Run natively and on the tree interpreter; every tensor must agree."""
    c_args = make_random_args(proc, size_env, seed=seed)
    c_args.update(extra)
    ref_args = make_random_args(proc, size_env, seed=seed)
    ref_args.update(extra)

    run_proc(proc, backend="c", **c_args)
    run_proc(proc, backend="interp", **ref_args)
    for name, ref in ref_args.items():
        if isinstance(ref, np.ndarray):
            np.testing.assert_allclose(
                c_args[name], ref, rtol=1e-4, atol=1e-5, equal_nan=True,
                err_msg=f"argument {name!r} diverges between C and interpreter",
            )


@pytest.mark.parametrize("name", all_level1_names())
def test_level1_unscheduled_c(name):
    _check_c_vs_interp(LEVEL1_KERNELS[name], L1_SIZES)


@pytest.mark.parametrize("name", all_level2_names())
def test_level2_unscheduled_c(name):
    _check_c_vs_interp(LEVEL2_KERNELS[name], _l2_sizes(name))


@pytest.fixture(scope="module", params=sorted(MACHINES))
def l1_schedules(request):
    machine = MACHINES[request.param]
    return {
        name: optimize_level_1(kernel, "i", "f64" if name.startswith("d") else "f32", machine, 2)
        for name, kernel in LEVEL1_KERNELS.items()
    }


@pytest.fixture(scope="module", params=sorted(MACHINES))
def l2_schedules(request):
    machine = MACHINES[request.param]
    return {
        name: optimize_level_2_general(
            kernel, "i", "f64" if name.startswith("d") else "f32", machine, 2, 2
        )
        for name, kernel in LEVEL2_KERNELS.items()
    }


@pytest.mark.parametrize("name", all_level1_names())
def test_level1_scheduled_c(name, l1_schedules):
    _check_c_vs_interp(l1_schedules[name], L1_SIZES)


@pytest.mark.parametrize("name", all_level2_names())
def test_level2_scheduled_c(name, l2_schedules):
    _check_c_vs_interp(l2_schedules[name], _l2_sizes(name))


# ---------------------------------------------------------------------------
# Halide suite
# ---------------------------------------------------------------------------

H, W = 32, 256


def test_blur_unscheduled_c():
    _check_c_vs_interp(make_blur(), {"H": H, "W": W})


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_blur_scheduled_c(machine):
    _check_c_vs_interp(make_blur() >> blur_schedule(MACHINES[machine]), {"H": H, "W": W})


def test_unsharp_unscheduled_c():
    _check_c_vs_interp(make_unsharp(), {"H": H, "W": W}, amount=1.5)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_unsharp_scheduled_c(machine):
    _check_c_vs_interp(make_unsharp() >> unsharp_schedule(MACHINES[machine]), {"H": H, "W": W}, amount=1.5)


# ---------------------------------------------------------------------------
# The jammed-and-vectorised level-2 bodies and the multi-vector stencil
# widths, on all three engines
# ---------------------------------------------------------------------------


def _check_three_engines(proc, size_env, threads=(1,), **extra):
    """interp == NumPy == C on every tensor, at every thread count."""

    def run(backend, n):
        args = make_random_args(proc, size_env, seed=3)
        args.update(extra)
        run_proc(proc, backend=backend, threads=n, **args)
        return args

    want = run("interp", 1)
    for backend in ("compiled", "c"):
        for n in threads:
            got = run(backend, n)
            for name, ref in want.items():
                if isinstance(ref, np.ndarray):
                    np.testing.assert_allclose(
                        got[name], ref, rtol=1e-4, atol=1e-5,
                        err_msg=f"argument {name!r}: {backend} on {n} thread(s) diverges from the interpreter",
                    )


#: M odd (a row tail for every rows > 1), N with full vectors, an odd vector
#: count (the interleave tail) and a lane tail at both precisions; then fewer
#: rows than any jam factor over exactly one f32 vector
JAMMED_SIZES = ({"M": 7, "N": 29}, {"M": 1, "N": 8})


@pytest.mark.parametrize("cols", (1, 2, 4))
@pytest.mark.parametrize("rows", (1, 2, 4))
@pytest.mark.parametrize("name", ["sgemv_n", "sgemv_t", "sger", "dgemv_n", "dgemv_t", "dger"])
def test_jammed_level2_bodies_agree_on_three_engines(name, rows, cols):
    from repro.blas.schedules import scheduled_level2

    proc = scheduled_level2(name, AVX2, rows=rows, cols=cols)
    assert "avx2_" in str(proc)  # jammed *and* vectorised
    for sizes in JAMMED_SIZES:
        _check_three_engines(proc, sizes)


@pytest.mark.parametrize("vec", (8, 16))
def test_stencils_agree_on_three_engines_at_one_and_two_vectors(vec):
    blur = blur_schedule(AVX2).apply(make_blur(), vec=vec)
    unsharp = unsharp_schedule(AVX2).apply(make_unsharp(), vec=vec)
    assert "avx2_f32_store(out[" in str(blur) and "avx2_f32_load(" in str(unsharp)
    # the row loops are `par`: one and two threads
    _check_three_engines(blur, {"H": H, "W": W}, threads=(1, 2))
    _check_three_engines(unsharp, {"H": H, "W": W}, threads=(1, 2), amount=1.5)


# ---------------------------------------------------------------------------
# The register-tiled GEMM: `C += A·B` on a non-zero C, against NumPy's product
# ---------------------------------------------------------------------------

#: two by one default tiles; ragged rows and columns; smaller than one tile;
#: one k step; the benchmark's small size (13 s on the tree interpreter, which
#: therefore sits that one out)
SGEMM_SIZES = ((12, 16, 8), (13, 37, 5), (5, 7, 3), (6, 16, 1), (96, 96, 96))


def _engines_match_numpy(proc, sizes, backends):
    args = make_random_args(proc, sizes, seed=3)
    want = args["C"] + args["A"] @ args["B"]
    for backend in backends:
        got = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}
        run_proc(proc, backend=backend, **got)
        np.testing.assert_allclose(
            got["C"], want, rtol=1e-4, atol=1e-4, err_msg=f"{backend} at {sizes} diverges from C + A @ B"
        )


@pytest.mark.parametrize("tile", [(6, 2), (2, 1), (4, 3)])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_sgemm_agrees_on_three_engines(machine, tile):
    proc = schedule_sgemm(MACHINES[machine], M_r=tile[0], N_r_vecs=tile[1])
    compile_native(proc)  # raises where run_proc would quietly answer from NumPy
    for M, N, K in SGEMM_SIZES:
        backends = ("compiled", "c") if M * N * K > 10_000 else ("interp", "compiled", "c")
        _engines_match_numpy(proc, {"M": M, "N": N, "K": K}, backends)
    assert not any(obs.counters("fallback").values())


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_the_shipped_micro_kernel_builds_and_runs_natively(machine):
    """The defaults (6 x 4 vectors): the staged tile used to be a row of four
    registers, which the C backend spilled to a ``float`` array and ``cc``
    refused."""
    uk = sgemm_micro_kernel(MACHINES[machine])
    compile_native(uk)
    assert "C_reg: f32[6, 4, " in str(uk)
    _engines_match_numpy(uk, {"K": 40}, ("interp", "compiled", "c"))
    assert not any(obs.counters("fallback").values())


# ---------------------------------------------------------------------------
# Scalars pass by value: an actual that reads a buffer the callee writes is
# evaluated once, at the call, on every engine.
# ---------------------------------------------------------------------------


def test_scalar_actual_aliasing_a_written_buffer_is_by_value_on_every_engine():
    from repro import proc_from_source

    g = proc_from_source(
        "def g(a: f32, x: f32[1] @ DRAM, y: f32[1] @ DRAM):\n"
        "    x[0] = 2.0\n"
        "    y[0] = a\n"
    )
    f = proc_from_source(
        "def f(x: f32[1] @ DRAM, y: f32[1] @ DRAM):\n    g(x[0], x, y)\n", {"g": g}
    )
    for backend in ("interp", "compiled", "c", "differential"):
        x, y = np.ones(1, np.float32), np.zeros(1, np.float32)
        run_proc(f, x, y, backend=backend)
        assert (x[0], y[0]) == (2.0, 1.0), backend
    # and in the C text itself (run_proc would degrade past a broken cc): the
    # actual is read before the callee's first store
    from repro.backend.codegen import proc_to_c

    c = proc_to_c(f)
    assert c.index("= x[") < c.index("= 2.0")


# ---------------------------------------------------------------------------
# Graceful decline: a Gemmini schedule uses configuration state the C backend
# does not model, so backend="c" records a fallback event and the NumPy
# engine takes over — results still correct.
# ---------------------------------------------------------------------------


def test_gemmini_declines_but_stays_correct():
    from repro.gemmini import make_matmul_kernel, matmul_schedule
    from repro.guard import faults

    if "cc-missing" in faults.env_faults():
        pytest.skip("armed cc-missing fault preempts the codegen-declined reason")

    sched = matmul_schedule().apply(make_matmul_kernel(), tile=16)
    sizes = {n: 32 for n in ("M", "N", "K") if any(a.name.name == n for a in sched._root.args)}
    c_args = make_random_args(sched, sizes)
    ref_args = make_random_args(sched, sizes)

    run_proc(sched, backend="c", **c_args)
    assert obs.count("fallback.codegen-declined") == 1
    run_proc(sched, backend="interp", **ref_args)
    for name, ref in ref_args.items():
        if isinstance(ref, np.ndarray):
            np.testing.assert_allclose(c_args[name], ref, rtol=1e-4, atol=1e-5)
