"""Cross-module integration tests: interpreter, backend, perf model, metrics,
machines, Halide and Gemmini pipelines."""
from __future__ import annotations

import numpy as np
import pytest

from repro import proc_from_source
from repro.backend import backend_check, compile_to_c
from repro.blas import LEVEL1_KERNELS, optimize_level_1, kernel_flops_bytes
from repro.gemmini import make_matmul_kernel, matmul_schedule, schedule_matmul_gemmini_exo_style
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.interp import check_equiv, run_proc
from repro.machines import AVX2, AVX512, GEMMINI
from repro.metrics import count_loc, function_loc, generated_c_loc
from repro.perf import AVX2_SPEC, AVX512_SPEC, GEMMINI_SPEC, CostModel, library_model


def test_interpreter_runs_gemv(gemv):
    A = np.arange(8 * 8, dtype=np.float32).reshape(8, 8)
    x = np.ones(8, dtype=np.float32)
    y = np.zeros(8, dtype=np.float32)
    run_proc(gemv, M=8, N=8, A=A, x=x, y=y)
    assert np.allclose(y, A @ x)


def test_interpreter_checks_preconditions(gemv):
    from repro.interp import InterpError
    with pytest.raises(InterpError):
        run_proc(gemv, M=7, N=8, A=np.zeros((7, 8)), x=np.zeros(8), y=np.zeros(7))


def test_codegen_produces_c(axpy):
    opt = optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)
    c = compile_to_c([opt])
    assert "void saxpy" in c
    assert "_mm256_fmadd_ps" in c
    assert count_loc(c) > 10
    assert generated_c_loc([opt]) == count_loc(c)
    backend_check(opt)


def test_cost_model_rewards_vectorisation():
    kernel = LEVEL1_KERNELS["sdot"]
    opt = optimize_level_1(kernel, "i", "f32", AVX2, 2)
    cm = CostModel(AVX2_SPEC)
    scalar = cm.runtime_cycles(kernel, {"n": 4096})
    vector = cm.runtime_cycles(opt, {"n": 4096})
    assert vector < scalar


def test_baseline_models_shape():
    mkl = library_model("MKL", 256)
    small = mkl.runtime_cycles(AVX2_SPEC, flops=2 * 16, bytes_moved=3 * 16 * 4)
    large = mkl.runtime_cycles(AVX2_SPEC, flops=2 * 10**6, bytes_moved=3 * 10**6 * 4)
    assert small < large
    # overhead dominates at small sizes
    assert small > 100


def test_machines():
    assert AVX2.vec_width("f32") == 8 and AVX2.vec_width("f64") == 4
    assert AVX512.vec_width("f32") == 16
    assert AVX512.supports_predication
    assert len(AVX2.get_instructions("f32")) >= 8
    assert GEMMINI.tile == 16


def test_metrics_loc():
    assert count_loc("x = 1\n\n# comment\ny = 2\n") == 2
    assert function_loc(optimize_level_1) > 5


def test_metrics_loc_multiline_docstrings():
    # regression: a closing triple-quote that ends a text line (rather than
    # standing alone) used to leave the counter stuck inside the docstring,
    # zeroing the count for everything after it (bench_fig06c tripped this)
    src = 'def f():\n    """doc line one\n    doc line two."""\n    return 1\n'
    assert count_loc(src) == 2
    src2 = '"""module doc\nspanning lines\n"""\nx = 1\n\n\ndef g():\n    pass\n'
    assert count_loc(src2) == 3
    # code sharing a line with the closing quotes still counts
    src3 = 'x = 1\n"""doc\ndoc"""; y = 2\nz = 3\n'
    assert count_loc(src3) == 3


def test_halide_blur_schedule_correct():
    blur = make_blur()
    sched = blur >> blur_schedule(AVX512)
    H, W = 32, 256
    inp = np.random.rand(H + 2, W + 2).astype(np.float32)
    out1 = np.zeros((H, W), dtype=np.float32)
    out2 = np.zeros((H, W), dtype=np.float32)
    run_proc(blur, H=H, W=W, inp=inp, out=out1)
    run_proc(sched, H=H, W=W, inp=inp, out=out2)
    assert np.allclose(out1, out2, rtol=1e-4)


def test_halide_unsharp_schedule_correct():
    unsharp = make_unsharp()
    sched = unsharp >> unsharp_schedule(AVX512)
    H, W = 32, 256
    inp = np.random.rand(H + 2, W + 2).astype(np.float32)
    out1 = np.zeros((H, W), dtype=np.float32)
    out2 = np.zeros((H, W), dtype=np.float32)
    run_proc(unsharp, H=H, W=W, amount=1.5, inp=inp, out=out1)
    run_proc(sched, H=H, W=W, amount=1.5, inp=inp, out=out2)
    assert np.allclose(out1, out2, rtol=1e-3, atol=1e-4)


def test_gemmini_schedule_correct_and_uses_instructions():
    kernel = make_matmul_kernel(K=32)
    sched = kernel >> matmul_schedule()
    N = M = 32
    A = np.random.randint(-3, 4, size=(N, 32)).astype(np.int32)
    B = np.random.randint(-3, 4, size=(32, M)).astype(np.int32)
    C1 = np.zeros((N, M), dtype=np.int32)
    C2 = np.zeros((N, M), dtype=np.int32)
    run_proc(kernel, N=N, M=M, scale=1.0, A=A, B=B, C=C1, config_state={})
    run_proc(sched, N=N, M=M, scale=1.0, A=A, B=B, C=C2, config_state={})
    assert np.allclose(C1, C2)
    assert "do_matmul_acc_i8" in str(sched)


def test_gemmini_exo_vs_exo2_same_code():
    k = make_matmul_kernel(K=32)
    a = k >> matmul_schedule()
    b = schedule_matmul_gemmini_exo_style(k)
    cm = CostModel(GEMMINI_SPEC)
    ra = cm.runtime_cycles(a, {"N": 64, "M": 64})
    rb = cm.runtime_cycles(b, {"N": 64, "M": 64})
    assert abs(ra - rb) / rb < 0.05  # Figure 6: ratio ≈ 1.0


def test_flops_bytes_counts():
    f, b = kernel_flops_bytes("saxpy", {"n": 100})
    assert f == 200 and b == 1200
    f, b = kernel_flops_bytes("sgemv_n", {"M": 10, "N": 20})
    assert f == 400
