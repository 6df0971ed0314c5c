"""The backend degradation ladder and its structured telemetry.

Every rung is exercised by injecting the fault that forces it and checking
three things: the call still returns correct results, a structured
:class:`FallbackEvent` records what happened, and retries fire where the
failure is transient.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.config import ConfigError
from repro.guard import inject
from repro.interp import (
    VALID_BACKENDS,
    InterpError,
    make_random_args,
    resolve_backend,
    run_proc,
)

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


def _axpy_args(axpy, seed=0):
    args = make_random_args(axpy, {"n": 96}, seed=seed)
    expect = args["y"] + args["a"] * args["x"]
    return args, expect


# ---------------------------------------------------------------------------
# cc-missing: c -> compiled, under every entry point (satellite c)
# ---------------------------------------------------------------------------


def test_cc_missing_under_run_proc(cache, axpy, tolerates):
    tolerates("cc-missing")
    with inject("cc-missing"):
        args, expect = _axpy_args(axpy, seed=1)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.reason == "cc-missing"


def test_cc_missing_under_differential_backend(cache, axpy, tolerates):
    tolerates("cc-missing")
    with inject("cc-missing"):
        args, expect = _axpy_args(axpy, seed=2)
        run_proc(axpy, backend="differential", **args)  # still cross-checks
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}
    (ev,) = obs.events()
    assert ev.stage == "differential-c-leg"


def test_cc_missing_under_tuner_spec(cache, tolerates):
    tolerates("cc-missing")
    from repro.tune import evaluate_spec

    with inject("cc-missing"):
        out = evaluate_spec(
            {
                "proc": "repro.blas:LEVEL1_KERNELS",
                "proc_args": ["saxpy"],
                "schedule": "repro.blas:level1_schedule",
                "config": {"interleave": 2},
                "size_env": {"n": 512},
                "repeats": 1,
                "backend": "c",
            }
        )
    # the sweep measures on the NumPy engine instead of dying
    assert out["status"] == "ok" and out["time_s"] > 0
    assert obs.count("fallback.cc-missing") >= 1


# ---------------------------------------------------------------------------
# transient faults are retried with backoff
# ---------------------------------------------------------------------------


@needs_cc
def test_cc_transient_is_retried_and_recovers(cache, axpy, tolerates):
    tolerates()
    with inject("cc-transient", times=1):
        args, expect = _axpy_args(axpy, seed=3)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("retry.") == {"cc-invoke": 1}
    assert obs.counters("fallback.") == {}  # recovered: no degradation


@needs_cc
def test_cc_transient_exhaustion_degrades_gracefully(cache, axpy, tolerates):
    tolerates("cc-transient")
    with inject("cc-transient"):  # every attempt fails
        args, expect = _axpy_args(axpy, seed=4)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.count("retry.cc-invoke") == 2  # 3 attempts, 2 retries
    assert obs.counters("fallback.") == {"native-unavailable": 1}


@needs_cc
def test_publish_race_is_retried_and_recovers(cache, axpy, tolerates):
    tolerates()
    with inject("publish-race", times=1):
        args, expect = _axpy_args(axpy, seed=5)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("retry.") == {"artifact-publish": 1}
    assert obs.counters("fallback.") == {}


def test_hung_cc_degrades_without_retry(cache, axpy, tolerates, tmp_path, monkeypatch):
    """A compiler that never returns is a ``cc-timeout`` — one step down the
    ladder like any other toolchain failure, not a leaked ``TimeoutExpired``."""
    tolerates()
    hung = tmp_path / "hung-cc"
    hung.write_text('#!/bin/sh\ncase "$1" in --version) echo "hung-cc 1.0";; *) exec sleep 30;; esac\n')
    hung.chmod(0o755)
    monkeypatch.setenv("CC", str(hung))
    monkeypatch.setattr(native, "_CC_TIMEOUT_S", 0.3)
    native.clear_memo()

    with pytest.raises(native.NativeUnavailableError) as exc_info:
        native.compile_native(axpy)
    assert exc_info.value.reason == "cc-timeout"
    assert obs.counters("retry.") == {}  # a hang is not transient
    assert not [f for f in os.listdir(cache) if f.endswith(".so")]  # temp .so cleaned up

    args, expect = _axpy_args(axpy, seed=7)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-timeout": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.reason == "cc-timeout"


# ---------------------------------------------------------------------------
# artifact-corrupt: evict and rebuild
# ---------------------------------------------------------------------------


@needs_cc
def test_corrupt_artifact_is_evicted_and_rebuilt(cache, axpy, tolerates):
    tolerates()
    root = axpy._root if hasattr(axpy, "_root") else axpy
    native.compile_native(root)
    assert obs.count("native.compiles") == 1

    native.clear_memo()  # simulate a fresh process hitting the disk cache
    with inject("artifact-corrupt", times=1):
        kernel = native.compile_native(root)
    stats = obs.counters("native.")
    assert stats["corrupt_evicted"] == 1
    assert stats["compiles"] == 2  # rebuilt, not surfaced to the caller

    args, expect = _axpy_args(axpy, seed=6)
    kernel({k: v for k, v in args.items()})
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# the keystone chaos property
# ---------------------------------------------------------------------------


def test_correctness_survives_any_armed_fault(cache, axpy, fast_guard):
    """Deliberately tolerates *every* fault: whatever REPRO_FAULTS forces,
    the public entry point returns correct results and never raises — this is
    the one test the chaos CI job must run (not skip) in every configuration.
    """
    for seed in (10, 11, 12):
        args, expect = _axpy_args(axpy, seed=seed)
        run_proc(axpy, backend="c", **args)
        np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# backend validation (satellite b)
# ---------------------------------------------------------------------------


def test_invalid_backend_kwarg_is_rejected_up_front(axpy):
    args = make_random_args(axpy, {"n": 8}, seed=0)
    with pytest.raises(InterpError, match=r"invalid execution backend 'numpyy'"):
        run_proc(axpy, backend="numpyy", **args)


def test_invalid_env_backend_names_its_source(monkeypatch, axpy):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "native")
    args = make_random_args(axpy, {"n": 8}, seed=0)
    with pytest.raises(ConfigError, match="REPRO_EXEC_BACKEND='native'.*valid backends"):
        run_proc(axpy, **args)


def test_resolve_backend_lists_the_valid_set():
    with pytest.raises(InterpError) as err:
        resolve_backend("jit")
    for name in VALID_BACKENDS:
        assert name in str(err.value)
    assert resolve_backend(None) in VALID_BACKENDS
    assert resolve_backend("interp") == "interp"
