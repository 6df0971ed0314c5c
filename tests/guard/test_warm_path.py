"""The warm path of ``run_proc(backend="c")`` may skip work, never a check.

Once a kernel is warm, ``compile_native`` answers from its identity tier
without lowering anything (tests/backend/test_native_cache.py).  Every
per-call safety decision must still be taken on each of those calls: the
toolchain fault sites are consulted and poisoned artifacts are refused
before they execute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.guard import inject
from repro.interp import make_random_args, run_proc
from repro.primitives import parallelize_loop

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


def _args(axpy, seed):
    args = make_random_args(axpy, {"n": 96}, seed=seed)
    return args, args["y"] + args["a"] * args["x"]


def _warm(proc, axpy):
    """Compile, quarantine and validate; returns the kernel every later
    call resolves to."""
    args, expect = _args(axpy, seed=0)
    run_proc(proc, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    kernel = native.compile_native(proc)
    assert native.artifact_status(kernel.key) == "validated"
    assert obs.counters("fallback.") == {}
    return kernel


def _forbid_execution(kernel, monkeypatch):
    def ran(*_args):
        raise AssertionError("the kernel executed")

    monkeypatch.setattr(kernel, "_fn", ran)


@needs_cc
def test_cc_missing_on_a_warm_kernel_still_degrades(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    with inject("cc-missing"):
        args, expect = _args(axpy, seed=1)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.proc == "_axpy"


@needs_cc
def test_omp_missing_on_a_warm_par_kernel_still_records_its_event(cache, axpy, tolerates):
    tolerates()
    if not native.openmp_supported(native.find_cc()):
        pytest.skip("toolchain cannot build with -fopenmp")
    par = parallelize_loop(axpy, "i")
    kernel = _warm(par, axpy)
    assert kernel._omp_set is not None
    with inject("omp-missing"):
        for seed in (1, 2):  # the second call is warm on the sequential twin
            args, expect = _args(axpy, seed=seed)
            run_proc(par, backend="c", threads=2, **args)
            np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
        assert native.compile_native(par) is not kernel
    events = [(e.stage, e.reason) for e in obs.events()]
    assert events == [("c-par->c-seq", "omp-missing")] * 3
    assert native.compile_native(par) is kernel  # the fault disarmed


@needs_cc
def test_poisoning_a_warm_kernel_stops_the_very_next_call(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    native.mark_poisoned(kernel.key, "kernel-segfault: found out later")

    args, expect = _args(axpy, seed=1)
    with pytest.raises(native.ArtifactPoisonedError, match="found out later"):
        native.call_guarded(native.compile_native(axpy), args)
    np.testing.assert_array_equal(args["y"], _args(axpy, seed=1)[0]["y"])  # untouched

    run_proc(axpy, backend="c", **args)  # degrades instead of raising
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"poisoned-artifact": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.artifact_key == kernel.key
    assert obs.count("guard.guarded_runs") == 1  # the guard was not re-entered
