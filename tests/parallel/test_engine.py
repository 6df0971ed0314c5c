"""Mechanics of multicore ``par``-loop execution in the compiled engine:
dispatch lowering, thread-count resolution, cache keying, stats counters,
privatized reductions, nested-dispatch serialization, and the
``thread-pool-exhausted`` degradation."""
from __future__ import annotations

import numpy as np
import pytest

from repro import obs, proc
from repro.config import ConfigError
from repro.guard.faults import inject
from repro.interp import (
    MAX_THREADS,
    PAR_CHUNKS,
    ThreadCountError,
    compile_proc,
    compiled_source,
    resolve_num_threads,
    run_proc,
)
from repro.interp.parallel import par_for
from repro.lang import *  # noqa: F401,F403
from repro.primitives import parallelize_loop


@proc
def _axpy(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]


@proc
def _scalar_acc(n: size, x: f32[n] @ DRAM, out: f32[1] @ DRAM):
    acc: f32 @ DRAM
    acc = 0.0
    for i in seq(0, n):
        acc += x[i]
    out[0] = acc


@proc
def _copy2d(M: size, N: size, src: f32[M, N] @ DRAM, dst: f32[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            dst[i, j] = src[i, j]


# ---------------------------------------------------------------------------
# Thread-count resolution
# ---------------------------------------------------------------------------


def test_explicit_threads_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "7")
    assert resolve_num_threads(3) == 3


def test_env_variable_resolves(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "5")
    assert resolve_num_threads() == 5


def test_default_is_cpu_count_clamped(monkeypatch):
    monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
    import os

    assert resolve_num_threads() == min(os.cpu_count() or 1, MAX_THREADS)


def test_counts_clamp_to_max_threads():
    assert resolve_num_threads(10_000) == MAX_THREADS


@pytest.mark.parametrize("bad", ["0", "-3", "two", "1.5"])
def test_invalid_env_values_raise_loudly(monkeypatch, bad):
    monkeypatch.setenv("REPRO_NUM_THREADS", bad)
    with pytest.raises(ConfigError, match="REPRO_NUM_THREADS"):
        resolve_num_threads()


def test_invalid_argument_raises():
    with pytest.raises(ThreadCountError):
        resolve_num_threads(0)


# ---------------------------------------------------------------------------
# Lowering + cache keying
# ---------------------------------------------------------------------------


def test_par_loop_lowers_to_dispatch():
    p = parallelize_loop(_axpy, "i")
    src = compiled_source(p, threads=2)
    assert "_par_for(" in src
    assert compile_proc(p, threads=2).stats()["par_loops"] == 1


def test_sequential_loop_does_not_dispatch():
    src = compiled_source(_axpy, threads=2)
    assert "_par_for(" not in src
    assert compile_proc(_axpy, threads=2).stats()["par_loops"] == 0


def test_thread_count_participates_in_cache_key():
    p = parallelize_loop(_axpy, "i")
    assert compile_proc(p, threads=1) is not compile_proc(p, threads=2)
    assert compile_proc(p, threads=2) is compile_proc(p, threads=2)


def test_nested_par_loops_dispatch_only_the_outer():
    p = parallelize_loop(parallelize_loop(_copy2d, "i"), "j")
    src = compiled_source(p, threads=2)
    assert src.count("_par_for(") == 1
    assert compile_proc(p, threads=2).stats()["par_loops"] == 1


# ---------------------------------------------------------------------------
# Execution + stats
# ---------------------------------------------------------------------------


def _run_axpy(p, threads):
    rng = np.random.default_rng(0)
    n = 257
    x = rng.uniform(-1, 1, n).astype(np.float32)
    y = rng.uniform(-1, 1, n).astype(np.float32)
    want = y + np.float32(2.0) * x
    run_proc(p, n, 2.0, x, y, backend="compiled", threads=threads)
    return y, want


def test_parallel_counters_surface_through_obs(tolerates):
    tolerates()
    p = parallelize_loop(_axpy, "i")
    y, want = _run_axpy(p, threads=2)
    np.testing.assert_allclose(y, want, rtol=1e-6)
    st = obs.counters("par.")
    assert st["par_loops"] == 1
    assert st["chunks"] >= 2
    assert st["threads_max"] == 2
    assert st["serial_degrades"] == 0


def test_single_thread_runs_one_chunk_for_maps():
    p = parallelize_loop(_axpy, "i")
    _run_axpy(p, threads=1)
    st = obs.counters("par.")
    assert st["par_loops"] == 1
    assert st["chunks"] == 1
    assert st["threads_max"] == 1


def test_privatized_scalar_reduction_is_bitwise_across_thread_counts():
    p = parallelize_loop(_scalar_acc, "i")
    rng = np.random.default_rng(3)
    n = 1003
    x = rng.uniform(-1, 1, n).astype(np.float32)
    outs = []
    for t in (1, 2, 8):
        out = np.zeros(1, np.float32)
        run_proc(p, n, x, out, backend="compiled", threads=t)
        outs.append(out.copy())
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])
    ref = np.zeros(1, np.float32)
    run_proc(_scalar_acc, n, x, ref, backend="interp")
    np.testing.assert_allclose(outs[0], ref, rtol=1e-4, atol=1e-5)


def test_reduction_partition_is_fixed_regardless_of_threads():
    p = parallelize_loop(_scalar_acc, "i")
    n = 1003
    x = np.ones(n, np.float32)
    for t in (1, 8):
        obs.reset("par.")
        out = np.zeros(1, np.float32)
        run_proc(p, n, x, out, backend="compiled", threads=t)
        assert obs.count("par.chunks") == PAR_CHUNKS


# ---------------------------------------------------------------------------
# Degradations
# ---------------------------------------------------------------------------


def test_thread_pool_exhausted_degrades_to_serial():
    p = parallelize_loop(_axpy, "i")
    with inject("thread-pool-exhausted", times=10):
        y, want = _run_axpy(p, threads=4)
    np.testing.assert_allclose(y, want, rtol=1e-6)
    assert obs.count("par.serial_degrades") == 1
    assert any(
        e.reason == "thread-pool-exhausted" and e.stage == "par->serial" for e in obs.events()
    )


def test_unlowerable_par_body_falls_back_to_sequential():
    # a whole-buffer (non-iterator-indexed, non-reduce) write inside the
    # loop cannot be routed: y[0] is overwritten by every iteration
    @proc
    def last(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
        for i in seq(0, n):
            y[0] = x[i]

    from repro.core.procedure import Procedure
    from repro.ir.edit import EditSession

    # the commute check rightly rejects this loop, so stamp the pragma
    # directly to exercise the engine's own second line of defence
    session = EditSession(last)
    session.set_field(last.find_loop("i")._path, "pragma", "par")
    forced = session.finish()

    n = 64
    x = np.arange(n, dtype=np.float32)
    y = np.zeros(1, np.float32)
    run_proc(forced, n, x, y, backend="compiled", threads=4)
    assert y[0] == n - 1  # sequential semantics preserved
    assert obs.count("par.par_loops") == 0
    assert any(e.reason == "par-unlowerable" and e.stage == "par->seq" for e in obs.events())


def test_nested_runtime_dispatch_is_serialized(tolerates):
    tolerates()
    # a dispatch issued from inside a worker must not resubmit to the pool
    seen = []

    def outer_body(lo, hi):
        inner = par_for(lambda l, h: seen.append((l, h)), 0, 4, 2, (), "inner")
        return inner

    par_for(outer_body, 0, 4, 2, (), "outer")
    st = obs.counters("par.")
    assert st["par_loops"] >= 3  # outer + one nested dispatch per chunk
    assert st["serial_degrades"] >= 2  # every nested dispatch degraded


def test_empty_range_dispatch_is_a_noop():
    assert par_for(lambda lo, hi: pytest.fail("body ran"), 5, 5, 4, (), "x") == []
