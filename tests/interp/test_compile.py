"""Unit tests for the compiled execution engine (repro.interp.compile)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import proc_from_source
from repro.interp import (
    CompileError,
    InterpError,
    check_equiv,
    compile_proc,
    compiled_source,
    make_random_args,
    run_proc,
)


def _both(proc, size_env, seed=0):
    """Run ``proc`` under both backends on identical inputs; return (compiled,
    interp) argument dicts."""
    a1 = make_random_args(proc, size_env, seed=seed)
    a2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in a1.items()}
    run_proc(proc, backend="compiled", **a1)
    run_proc(proc, backend="interp", **a2)
    return a1, a2


# ---------------------------------------------------------------------------
# Vectorisation
# ---------------------------------------------------------------------------


def test_saxpy_vectorises_and_is_bit_identical():
    p = proc_from_source(
        """
def saxpy(n: size, alpha: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += alpha * x[i]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and eng.fallback_stmts == 0
    assert "range(" not in eng.source  # the loop is gone entirely
    a1, a2 = _both(p, {"n": 10_000})
    assert np.array_equal(a1["y"], a2["y"])  # elementwise map: exact


def test_gemm_inner_loop_vectorises():
    p = proc_from_source(
        """
def gemm(M: size, N: size, K: size, A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    for k in seq(0, K):
        for i in seq(0, M):
            for j in seq(0, N):
                C[i, j] += A[i, k] * B[k, j]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1
    a1, a2 = _both(p, {"M": 17, "N": 23, "K": 11})
    assert np.array_equal(a1["C"], a2["C"])


def test_scalar_expansion_rot_kernel():
    # xi is a loop-local scalar read after x is overwritten: the vectoriser
    # must materialise a copy, not keep a live view
    p = proc_from_source(
        """
def rot(n: size, c: f32, s: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        xi: f32 @ DRAM
        xi = x[i]
        x[i] = c * xi + s * y[i]
        y[i] = c * y[i] - s * xi
"""
    )
    assert compile_proc(p).vector_loops == 1
    a1, a2 = _both(p, {"n": 513, "c": 0.8, "s": 0.6})
    assert np.array_equal(a1["x"], a2["x"]) and np.array_equal(a1["y"], a2["y"])


def test_invariant_reduction_becomes_sum():
    p = proc_from_source(
        """
def dot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f32[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and ".sum(" in eng.source
    a1, a2 = _both(p, {"n": 65536})
    assert np.allclose(a1["result"], a2["result"], rtol=1e-4)


def test_loop_carried_dependence_not_vectorised():
    # prefix sum: y[i] reads y[i - 1] + 1 — must stay a scalar loop
    p = proc_from_source(
        """
def scan(n: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i + 1] = y[i] + 1.0
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 0 and "range(" in eng.source
    assert "# not folded: accesses to y overlap between iterations" in eng.source
    a1 = make_random_args(p, {"n": 64})
    a1["y"] = np.zeros(65, dtype=np.float32)
    a2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in a1.items()}
    run_proc(p, backend="compiled", **a1)
    run_proc(p, backend="interp", **a2)
    assert np.array_equal(a1["y"], a2["y"])


def test_diagonal_access_not_vectorised():
    # the iterator in two dimensions of one access is not a slice — naive
    # per-dimension slicing would write an n x n block instead of a diagonal
    p = proc_from_source(
        """
def diag(n: size, A: f32[n, n] @ DRAM):
    for i in seq(0, n):
        A[i, i] = 1.0
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 0
    assert "# not folded: an iterator strides two dimensions of A" in eng.source
    a1, a2 = _both(p, {"n": 6})
    assert np.array_equal(a1["A"], a2["A"])
    assert a1["A"][0, 1] != 1.0  # off-diagonal untouched

    q = proc_from_source(
        """
def rdiag(n: size, A: f32[n, n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = A[i, i]
"""
    )
    b1, b2 = _both(q, {"n": 6})
    assert np.array_equal(b1["y"], b2["y"])


def test_invariant_scalar_temp_reduction_not_summed():
    # t holds a loop-invariant *scalar*: the sum-reduction lowering must not
    # emit .sum() on it (the reduction adds t once per iteration)
    p = proc_from_source(
        """
def inv(n: size, alpha: f32, s: f32[1] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = alpha
        s[0] += t
"""
    )
    a1 = {"n": 5, "alpha": 2.0, "s": np.zeros(1, dtype=np.float32)}
    a2 = {"n": 5, "alpha": 2.0, "s": np.zeros(1, dtype=np.float32)}
    run_proc(p, backend="compiled", **a1)
    run_proc(p, backend="interp", **a2)
    assert np.allclose(a1["s"], a2["s"])
    assert np.allclose(a1["s"], [10.0])


def test_window_alias_blocks_unsafe_vectorisation():
    # t aliases x through a window; the shifted copy has a loop-carried
    # dependence that a per-symbol analysis would miss
    p = proc_from_source(
        """
def shift(n: size, x: f32[n] @ DRAM):
    t = x[0:n]
    for i in seq(0, n - 1):
        x[i + 1] = t[i]
"""
    )
    assert compile_proc(p).vector_loops == 0
    a1 = {"n": 8, "x": np.arange(8, dtype=np.float32)}
    a2 = {"n": 8, "x": np.arange(8, dtype=np.float32)}
    run_proc(p, backend="compiled", **a1)
    run_proc(p, backend="interp", **a2)
    assert np.array_equal(a1["x"], a2["x"])


def test_window_reads_alone_still_vectorise():
    p = proc_from_source(
        """
def wread(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    t = x[0:n]
    for i in seq(0, n):
        y[i] = t[i] + x[i]
"""
    )
    assert compile_proc(p).vector_loops == 1
    a1, a2 = _both(p, {"n": 100})
    assert np.array_equal(a1["y"], a2["y"])


def test_extern_vectorises_via_numpy_equivalent():
    p = proc_from_source(
        """
def asum(n: size, x: f32[n] @ DRAM, result: f32[1] @ DRAM):
    for i in seq(0, n):
        result[0] += fabs(x[i])
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and "np.abs" in eng.source
    a1, a2 = _both(p, {"n": 4096})
    assert np.allclose(a1["result"], a2["result"], rtol=1e-4)


# ---------------------------------------------------------------------------
# Out-of-bounds behaviour (negative-index regression, satellite task)
# ---------------------------------------------------------------------------


def test_negative_index_rejected_by_both_backends():
    p = proc_from_source(
        """
def neg(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i - 1]
"""
    )
    for backend in ("interp", "compiled"):
        args = make_random_args(p, {"n": 8})
        with pytest.raises(InterpError):
            run_proc(p, backend=backend, **args)


def test_negative_index_rejected_in_scalar_compiled_path():
    # i / 2 defeats the affine analysis, so this exercises the guarded
    # scalar lowering rather than the slice guard
    p = proc_from_source(
        """
def neg2(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i / 2 - 1]
"""
    )
    assert compile_proc(p).vector_loops == 0
    for backend in ("interp", "compiled"):
        args = make_random_args(p, {"n": 8})
        with pytest.raises(InterpError):
            run_proc(p, backend=backend, **args)


def test_negative_window_rejected_by_both_backends():
    p = proc_from_source(
        """
def negw(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n / 4):
        w = x[4 * i - 1:4 * i + 3]
        for j in seq(0, 4):
            y[4 * i + j] = w[j]
"""
    )
    for backend in ("interp", "compiled"):
        args = make_random_args(p, {"n": 8})
        with pytest.raises(InterpError):
            run_proc(p, backend=backend, **args)


def test_upper_out_of_bounds_rejected_by_both_backends():
    p = proc_from_source(
        """
def over(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i + 1]
"""
    )
    for backend in ("interp", "compiled"):
        args = make_random_args(p, {"n": 8})
        with pytest.raises(InterpError):
            run_proc(p, backend=backend, **args)


# ---------------------------------------------------------------------------
# Fallback, caching, differential mode
# ---------------------------------------------------------------------------


def test_scheduled_kernel_compiles_calls_recursively():
    from repro.blas import LEVEL1_KERNELS, optimize_level_1
    from repro.machines import AVX2

    opt = optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)
    eng = compile_proc(opt)
    # @instr calls lower to compiled callees, not interpreter fallbacks
    assert eng.fallback_stmts == 0
    assert check_equiv(LEVEL1_KERNELS["saxpy"], opt, {"n": 4096})


def test_compile_cache_hits_and_distinguishes_procs():
    p = proc_from_source(
        """
def cached(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] * 2.0
"""
    )
    assert compile_proc(p) is compile_proc(p)
    q = proc_from_source(
        """
def cached(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] * 3.0
"""
    )
    assert compile_proc(p) is not compile_proc(q)


def test_cache_distinguishes_argument_types():
    # struct_hash skips FnArg types, but codegen depends on them: a `size`
    # argument elides the negative-index guard an `index` argument needs
    src = """
def typed(k: {T}, y: f32[8] @ DRAM):
    y[k] = 1.0
"""
    p_size = proc_from_source(src.format(T="size"))
    p_index = proc_from_source(src.format(T="index"))
    assert compile_proc(p_size) is not compile_proc(p_index)
    y = np.zeros(8, dtype=np.float32)
    with pytest.raises(InterpError):
        run_proc(p_index, backend="compiled", k=-1, y=y)
    assert not y.any()


def test_differential_backend_runs_and_agrees(gemv):
    args = make_random_args(gemv, {"M": 16, "N": 16})
    run_proc(gemv, backend="differential", **args)


def test_unknown_backend_rejected(gemv):
    args = make_random_args(gemv, {"M": 8, "N": 8})
    with pytest.raises(InterpError):
        run_proc(gemv, backend="no-such-engine", **args)


def test_config_state_shared_between_compiled_and_fallback():
    # Gemmini-style config writes execute through the compiled lowering and
    # must observe one shared config dict per run
    from repro.gemmini import make_matmul_kernel, matmul_schedule

    kernel = make_matmul_kernel(K=16)
    sched = kernel >> matmul_schedule()
    N = M = 16
    mk = lambda: (
        np.random.default_rng(0).integers(-3, 4, size=(N, 16)).astype(np.int32),
        np.random.default_rng(1).integers(-3, 4, size=(16, M)).astype(np.int32),
    )
    A, B = mk()
    C1 = np.zeros((N, M), dtype=np.int32)
    C2 = np.zeros((N, M), dtype=np.int32)
    run_proc(sched, backend="compiled", N=N, M=M, scale=1.0, A=A, B=B, C=C1, config_state={})
    run_proc(sched, backend="interp", N=N, M=M, scale=1.0, A=A, B=B, C=C2, config_state={})
    assert np.array_equal(C1, C2)


def test_compiled_source_is_inspectable(axpy):
    src = compiled_source(axpy)
    assert src.startswith("def __kernel(")


# ---------------------------------------------------------------------------
# Cross-procedure inlining + outer-loop vectorisation (ISSUE 3 tentpole)
# ---------------------------------------------------------------------------


def _vadd4():
    return proc_from_source(
        """
def vadd4(dst: [f32][4] @ DRAM, a: [f32][4] @ DRAM, b: [f32][4] @ DRAM):
    for i in seq(0, 4):
        dst[i] = a[i] + b[i]
"""
    )


def test_inliner_folds_chunked_call_loop_to_one_statement():
    caller = proc_from_source(
        """
def chunks(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for io in seq(0, n / 4):
        vadd4(y[4 * io:4 * io + 4], x[4 * io:4 * io + 4], y[4 * io:4 * io + 4])
""",
        {"vadd4": _vadd4()},
    )
    eng = compile_proc(caller, inline=True)
    assert eng.inlined_calls == 1 and eng.vector_loops == 1 and eng.fallback_stmts == 0
    assert "range(" not in eng.source and "](__ctx" not in eng.source
    a1, a2 = _both(caller, {"n": 103})  # non-multiple: tail elements untouched
    assert np.array_equal(a1["y"], a2["y"])


def test_inline_knob_forced_off_keeps_call_path_and_agrees():
    caller = proc_from_source(
        """
def chunks(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for io in seq(0, n / 4):
        vadd4(y[4 * io:4 * io + 4], x[4 * io:4 * io + 4], y[4 * io:4 * io + 4])
""",
        {"vadd4": _vadd4()},
    )
    on = compile_proc(caller, inline=True)
    off = compile_proc(caller, inline=False)
    assert on is not off  # the knob is part of the cache key
    assert off.inlined_calls == 0 and "](__ctx" in off.source
    args = make_random_args(caller, {"n": 64})
    run_proc(caller, backend="differential", inline=False, **args)
    run_proc(caller, backend="differential", inline=True, **make_random_args(caller, {"n": 64}))


def test_inline_env_knob(monkeypatch):
    from repro.interp import clear_compile_cache

    caller = proc_from_source(
        """
def chunks(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for io in seq(0, n / 4):
        vadd4(y[4 * io:4 * io + 4], x[4 * io:4 * io + 4], y[4 * io:4 * io + 4])
""",
        {"vadd4": _vadd4()},
    )
    monkeypatch.setenv("REPRO_EXEC_INLINE", "0")
    clear_compile_cache()
    assert compile_proc(caller).inlined_calls == 0
    monkeypatch.setenv("REPRO_EXEC_INLINE", "1")
    assert compile_proc(caller).inlined_calls == 1


def test_scheduled_saxpy_has_no_per_chunk_python_calls():
    # the ISSUE-3 acceptance shape: the scheduled kernel compiles to
    # whole-array statements — no Python-level call and no loop per chunk
    from repro.blas import LEVEL1_KERNELS, optimize_level_1
    from repro.machines import AVX2

    sched = optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)
    eng = compile_proc(sched, inline=True)
    assert eng.inlined_calls > 0 and eng.fallback_stmts == 0
    assert "](__ctx" not in eng.source  # zero per-chunk Python calls
    assert "range(" not in eng.source  # zero Python-level loops
    args = make_random_args(sched, {"n": 65536})
    run_proc(sched, backend="differential", **args)


def test_inliner_declines_scalar_cell_window_actual():
    # a window of a scalar cell (the interpreter's 0-d reshape(1) special
    # case) is not an inlinable tensor actual: the call path must survive
    callee = proc_from_source(
        """
def bump(dst: [f32][1] @ DRAM):
    dst[0] += 1.0
"""
    )
    caller = proc_from_source(
        """
def cellpass(y: f32[4] @ DRAM):
    acc: f32 @ DRAM
    acc = 0.0
    bump(acc[0:1])
    y[0] = acc
""",
        {"bump": callee},
    )
    eng = compile_proc(caller, inline=True)
    assert eng.inlined_calls == 0
    a1, a2 = _both(caller, {})
    assert np.array_equal(a1["y"], a2["y"])
    assert a1["y"][0] == 1.0


def test_inliner_declines_scalar_actual_aliasing_written_tensor():
    # the interpreter evaluates alpha = y[0] ONCE at call time; textual
    # substitution would re-read y[0] after the callee overwrites it
    scale = proc_from_source(
        """
def scale4(dst: [f32][4] @ DRAM, alpha: f32):
    for i in seq(0, 4):
        dst[i] = dst[i] * alpha
"""
    )
    caller = proc_from_source(
        """
def aliased(y: f32[4] @ DRAM):
    scale4(y[0:4], y[0])
""",
        {"scale4": scale},
    )
    eng = compile_proc(caller, inline=True)
    assert eng.inlined_calls == 0  # declined: actual reads a written base
    a1 = {"y": np.arange(2.0, 6.0, dtype=np.float32)}
    a2 = {"y": a1["y"].copy()}
    run_proc(caller, backend="compiled", **a1)
    run_proc(caller, backend="interp", **a2)
    assert np.array_equal(a1["y"], a2["y"])


def test_outer_vectorizer_rejects_lane_shifted_temp_dependence():
    # w[i+1] = w[i] propagates sequentially lane by lane; the folded
    # whole-array copy would not — the loop must stay scalar
    lanes = proc_from_source(
        """
def laneshift(dst: [f32][4] @ DRAM, src: [f32][4] @ DRAM):
    w: f32[5] @ DRAM
    w[0] = src[0]
    for i in seq(0, 4):
        w[i + 1] = w[i]
    for i in seq(0, 4):
        dst[i] = w[i + 1]
"""
    )
    caller = proc_from_source(
        """
def propagate(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for io in seq(0, n / 4):
        laneshift(y[4 * io:4 * io + 4], x[4 * io:4 * io + 4])
""",
        {"laneshift": lanes},
    )
    eng = compile_proc(caller, inline=True)
    assert "range(" in eng.source  # the chunk loop must stay scalar
    a1, a2 = _both(caller, {"n": 16})
    assert np.array_equal(a1["y"], a2["y"])


def test_inliner_declines_short_window_extent():
    # the interpreter errors on a callee access past the window VIEW even
    # when it stays inside the base buffer; a composed (inlined) access
    # would not — the inliner must prove the extent covers the callee shape
    vadd = _vadd4()
    short = proc_from_source(
        """
def shortwin(y: f32[8] @ DRAM, x: f32[8] @ DRAM):
    vadd4(y[0:2], x[0:4], y[0:4])
""",
        {"vadd4": vadd},
    )
    eng = compile_proc(short, inline=True)
    assert eng.inlined_calls == 0
    for backend in ("interp", "compiled"):
        args = make_random_args(short, {})
        with pytest.raises(InterpError):
            run_proc(short, backend=backend, **args)

    neg = proc_from_source(
        """
def negwin(m: size, y: f32[8] @ DRAM, x: f32[8] @ DRAM):
    vadd4(y[0:m - 8], x[0:4], y[0:4])
""",
        {"vadd4": vadd},
    )
    assert compile_proc(neg, inline=True).inlined_calls == 0
    for backend in ("interp", "compiled"):
        args = make_random_args(neg, {"m": 4})
        with pytest.raises(InterpError):
            run_proc(neg, backend=backend, **args)


def test_outer_vectorizer_scales_lane_invariant_reduction():
    # each chunk adds x[io] once per LANE: the folded sum must carry the
    # lane-count multiplicity
    p = proc_from_source(
        """
def lanesum(n: size, x: f32[n] @ DRAM, acc: f32[1] @ DRAM):
    for io in seq(0, n):
        for ii in seq(0, 4):
            acc[0] += x[io]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and "range(" not in eng.source
    a1, a2 = _both(p, {"n": 97})
    assert np.allclose(a1["acc"], a2["acc"], rtol=1e-4)
    # against zeroed accumulators the sum must carry the x4 multiplicity
    acc = np.zeros(1, dtype=np.float32)
    run_proc(p, backend="compiled", n=8, x=np.ones(8, dtype=np.float32), acc=acc)
    assert acc[0] == 32.0


def test_outer_vectorizer_trip1_leaf_loop_broadcasts_correctly():
    # a trip-1 leaf loop yields (chunks, 1) regions; they must flatten to
    # (chunks,) before composing with chunk-axis operands, or the product
    # broadcasts to (chunks, chunks) and the reduction silently explodes
    p = proc_from_source(
        """
def t1(n: size, x: f32[2 * n] @ DRAM, y: f32[n] @ DRAM, out: f32[1] @ DRAM):
    for io in seq(0, n):
        for ii in seq(0, 1):
            out[0] += x[2 * io + ii] * y[io]
"""
    )
    # inline=False keeps the trip-1 loop (the inliner's collapse never runs)
    eng = compile_proc(p, inline=False)
    assert eng.vector_loops == 1 and "range(" not in eng.source
    x = np.arange(12, dtype=np.float32)
    o1 = np.zeros(1, np.float32)
    o2 = np.zeros(1, np.float32)
    run_proc(p, backend="compiled", inline=False, n=6, x=x, y=np.ones(6, np.float32), out=o1)
    run_proc(p, backend="interp", n=6, x=x.copy(), y=np.ones(6, np.float32), out=o2)
    assert np.allclose(o1, o2) and o1[0] == 30.0


def test_outer_vectorizer_rejects_same_loop_conflicting_writes():
    # two writes in ONE leaf loop interleave per lane sequentially; folding
    # runs statement 1 for all lanes first, reversing the write order on
    # overlapping lanes — must fall back
    wr2 = proc_from_source(
        """
def wr2(dst: [f32][8] @ DRAM, s1: [f32][8] @ DRAM, s2: [f32][8] @ DRAM):
    for i in seq(0, 3):
        dst[i] = s1[i]
        dst[2 * i] = s2[i]
"""
    )
    caller = proc_from_source(
        """
def ww(n: size, y: f32[n] @ DRAM, a: f32[n] @ DRAM, b: f32[n] @ DRAM):
    for io in seq(0, n / 8):
        wr2(y[8 * io:8 * io + 8], a[8 * io:8 * io + 8], b[8 * io:8 * io + 8])
""",
        {"wr2": wr2},
    )
    eng = compile_proc(caller, inline=True)
    assert "range(" in eng.source  # the chunk loop must stay scalar
    a1, a2 = _both(caller, {"n": 16})
    assert np.array_equal(a1["y"], a2["y"])


def test_outer_vectorizer_rejects_chunk_carried_dependence():
    shift = proc_from_source(
        """
def vshift(dst: [f32][4] @ DRAM, src: [f32][4] @ DRAM):
    for i in seq(0, 4):
        dst[i] = src[i]
"""
    )
    # chunk io reads the last element chunk io-1 wrote: folding the outer
    # loop would read stale data, so the loop must stay a Python loop
    caller = proc_from_source(
        """
def carried(n: size, y: f32[n] @ DRAM):
    for io in seq(0, n / 4 - 1):
        vshift(y[4 * io + 4:4 * io + 8], y[4 * io + 1:4 * io + 5])
""",
        {"vshift": shift},
    )
    eng = compile_proc(caller, inline=True)
    assert eng.inlined_calls == 1
    assert "range(" in eng.source  # outer loop survives
    a1, a2 = _both(caller, {"n": 32})
    assert np.array_equal(a1["y"], a2["y"])


def test_outer_vectorizer_invariant_reduction_sums_over_chunks():
    fma = proc_from_source(
        """
def vfma4(dst: [f32][4] @ DRAM, a: [f32][4] @ DRAM, b: [f32][4] @ DRAM):
    for i in seq(0, 4):
        dst[i] += a[i] * b[i]
"""
    )
    caller = proc_from_source(
        """
def dotchunks(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, acc: f32[4] @ DRAM):
    for io in seq(0, n / 4):
        vfma4(acc[0:4], x[4 * io:4 * io + 4], y[4 * io:4 * io + 4])
""",
        {"vfma4": fma},
    )
    eng = compile_proc(caller, inline=True)
    assert eng.inlined_calls == 1 and "range(" not in eng.source
    assert ".sum(axis=0" in eng.source
    a1, a2 = _both(caller, {"n": 4096})
    assert np.allclose(a1["acc"], a2["acc"], rtol=1e-4)


# ---------------------------------------------------------------------------
# Masked-guard and tail-peel lowering (satellite)
# ---------------------------------------------------------------------------


def test_masked_guard_lowers_to_clipped_slice():
    p = proc_from_source(
        """
def maskstore(n: size, vw: size, base: index, bound: size, dst: f32[n] @ DRAM, src: f32[n] @ DRAM):
    for i in seq(0, vw):
        if base + i < bound:
            dst[i] = src[i]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and eng.fallback_stmts == 0
    assert "range(" not in eng.source and "min(" in eng.source
    for base, bound in ((0, 8), (0, 3), (5, 3), (3, 100), (0, 0)):
        a1 = make_random_args(p, {"n": 8, "vw": 8, "base": base, "bound": bound})
        a2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in a1.items()}
        run_proc(p, backend="compiled", **a1)
        run_proc(p, backend="interp", **a2)
        assert np.array_equal(a1["dst"], a2["dst"]), (base, bound)


def test_lower_bound_guard_peels_prefix():
    p = proc_from_source(
        """
def tailset(n: size, start: size, y: f32[n] @ DRAM):
    for i in seq(0, n):
        if i >= start:
            y[i] = 1.0
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and "max(" in eng.source
    for start in (0, 3, 8, 100):
        a1 = make_random_args(p, {"n": 8, "start": start})
        a2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in a1.items()}
        run_proc(p, backend="compiled", **a1)
        run_proc(p, backend="interp", **a2)
        assert np.array_equal(a1["y"], a2["y"]), start


def test_masked_reduction_clips_sum_range():
    p = proc_from_source(
        """
def maskdot(n: size, bound: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f32[1] @ DRAM):
    for i in seq(0, n):
        if i < bound:
            result[0] += x[i] * y[i]
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and ".sum(" in eng.source
    for bound in (0, 7, 64, 10_000):
        a1 = make_random_args(p, {"n": 64, "bound": bound})
        a2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in a1.items()}
        run_proc(p, backend="compiled", **a1)
        run_proc(p, backend="interp", **a2)
        assert np.allclose(a1["result"], a2["result"], rtol=1e-4), bound


def test_value_dependent_guard_still_falls_back():
    # a guard on loaded data is not affine in the iterator: scalar loop
    p = proc_from_source(
        """
def datadep(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        if x[i] < 0.5:
            y[i] = 0.0
"""
    )
    eng = compile_proc(p)
    assert eng.vector_loops == 0 and "range(" in eng.source
    assert "# not folded: guard is not an affine bound on the iterator" in eng.source
    a1, a2 = _both(p, {"n": 40})
    assert np.array_equal(a1["y"], a2["y"])


# ---------------------------------------------------------------------------
# One folder: what the deleted 1-D vectoriser handled, the loop folder handles
# ---------------------------------------------------------------------------

_ONE_FOLDER_CASES = {
    # scalar allocations as lane-less registers (copy-on-bind of views)
    "rot_scalar_temps": (
        """
def rot(n: size, c: f32, s: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        xi: f32 @ DRAM
        yi: f32 @ DRAM
        xi = x[i]
        yi = y[i]
        x[i] = c * xi + s * yi
        y[i] = c * yi - s * xi
""",
        {"n": 513, "c": 0.8, "s": 0.6},
        True,
    ),
    "swap_scalar_temp": (
        """
def swap(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = x[i]
        x[i] = y[i]
        y[i] = t
""",
        {"n": 257},
        True,
    ),
    # an affine `if` guard as a peeled sub-range
    "masked_tail_clip": (
        """
def tail(n: size, m: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        if i < m:
            y[i] += a * x[i]
""",
        {"n": 100, "m": 93},
        True,
    ),
    # a scalar bound outside the loop as a .sum() accumulator (scalar_cast kept)
    "sdot_outer_accumulator": (
        """
def sdot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f32[1] @ DRAM):
    acc: f32 @ DRAM
    acc = 0.0
    for i in seq(0, n):
        acc += x[i] * y[i]
    result[0] = acc
""",
        {"n": 4099},
        False,
    ),
    "sasum_outer_accumulator": (
        """
def sasum(n: size, x: f32[n] @ DRAM, result: f32[1] @ DRAM):
    acc: f32 @ DRAM
    acc = 0.0
    for i in seq(0, n):
        acc += fabs(x[i])
    result[0] = acc
""",
        {"n": 4099},
        False,
    ),
    # the 1-D "single write signature" rule rejected two write patterns; the
    # folder's period rule proves rows of distinct iterations disjoint
    "interleaved_writes": (
        """
def pairs(n: size, x: f32[n] @ DRAM, y: f32[2 * n] @ DRAM):
    for i in seq(0, n):
        y[2 * i] = x[i] * 2.0
        y[2 * i + 1] = y[2 * i] + 1.0
""",
        {"n": 301},
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(_ONE_FOLDER_CASES))
def test_one_folder_handles(case):
    src, sizes, exact = _ONE_FOLDER_CASES[case]
    p = proc_from_source(src)
    eng = compile_proc(p)
    assert eng.vector_loops == 1 and eng.fallback_stmts == 0
    assert "range(" not in eng.source
    a1, a2 = _both(p, sizes)
    for name, v in a1.items():
        if not isinstance(v, np.ndarray):
            continue
        if exact:
            assert np.array_equal(v, a2[name]), name  # a map: bit-identical
        else:
            assert np.allclose(v, a2[name], rtol=1e-4), name  # .sum() reorders


# ---------------------------------------------------------------------------
# the folded-window view: the constructor fast path is the as_strided view
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("contiguous", [True, False])
def test_strided2_is_the_as_strided_view_on_any_base(contiguous):
    from numpy.lib.stride_tricks import as_strided

    from repro.interp.compile import _rt_strided2
    from repro.interp.interpreter import InterpError

    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(1, 200))
        backing = np.arange(3 * size, dtype=np.float32)
        # a row of a matrix is contiguous, a column is not
        arr = backing[:size] if contiguous else backing.reshape(size, 3)[:, 1]
        assert arr.flags.c_contiguous == (contiguous or size == 1)
        base, n, w = (int(v) for v in rng.integers(0, 12, 3))
        a, b = (int(v) for v in rng.integers(0, 20, 2))
        in_range = base + a * (n - 1) + b * (w - 1) < size
        if not in_range:
            with pytest.raises(InterpError, match="vector access out of range"):
                _rt_strided2(arr, base, n, w, a, b, "buf")
            continue
        view = _rt_strided2(arr, base, n, w, a, b, "buf")
        s = arr.strides[0]
        want = as_strided(arr[base:], shape=(n, w), strides=(a * s, b * s))
        assert view.shape == want.shape and view.strides == want.strides and view.dtype == want.dtype
        np.testing.assert_array_equal(view, want)
        if n and w:  # writes go through to the base
            view[n - 1, w - 1] = -5.0
            assert arr[base + a * (n - 1) + b * (w - 1)] == -5.0
