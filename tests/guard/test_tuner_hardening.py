"""Tuner hardening: candidate time limits, crashes, and the poison list."""

from __future__ import annotations

import time

import pytest

from repro import proc_from_source
from repro.api import S, knob
from repro.backend import native
from repro.guard import inject
from repro.tune import (
    Leaderboard,
    Measurement,
    ScheduleRunner,
    TuneError,
    Tuner,
    config_key,
    evaluate_isolated,
)
from repro.tune.space import Param, Space

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")

# one C call of ~3 s at n = 5e8: a loop-carried chain no compiler folds
_spin = proc_from_source(
    "def spin(n: size, y: f32[1] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[0] = y[0] * 0.5 + 1.0\n"
)


def simplify_schedule():
    return S.simplify()


@needs_cc
def test_a_candidate_time_limit_stops_native_code(cache, tolerates):
    tolerates()
    spec = {
        "proc": f"{__name__}:_spin",
        "schedule": f"{__name__}:simplify_schedule",
        "size_env": {"n": 500_000_000},
        "repeats": 1,
        "backend": "c",
        "timeout_s": 0.5,
    }
    # built and validated up front, so the candidate's single C call runs
    # in-process, where no Python-level timer can interrupt it
    kernel = native.compile_native(S.simplify().apply(_spin))
    native.mark_validated(kernel.key)

    t0 = time.perf_counter()
    m = Measurement.from_dict(evaluate_isolated(spec))
    elapsed = time.perf_counter() - t0
    assert m.status == "timeout" and m.score == float("inf")
    assert elapsed < 1.5, f"the limit took {elapsed:.2f}s to stop the kernel"


def test_runner_rejects_bad_timeouts_and_backends(axpy, monkeypatch):
    from repro.interp import InterpError
    from repro.guard import quarantine

    def no_fork(*a, **k):
        raise AssertionError("forked for a spec it should have refused")

    monkeypatch.setattr(quarantine.os, "fork", no_fork)
    spec = {"proc": "repro.blas:LEVEL1_KERNELS", "proc_args": ["saxpy"],
            "schedule": "repro.blas:level1_schedule", "timeout_s": 0}
    with pytest.raises(TuneError, match="timeout_s"):
        evaluate_isolated(spec)
    with pytest.raises(InterpError, match="ScheduleRunner"):
        ScheduleRunner(axpy, S.simplify(), {"n": 8}, backend="native")


def test_worker_crash_fault_is_contained_by_parallel_evaluation(tolerates):
    tolerates("worker-crash")
    from concurrent.futures import ThreadPoolExecutor

    base = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    # two candidates at once, each in a child of its own, the way the
    # service's timing threads measure them
    specs = [dict(base, config={"interleave": i}) for i in (1, 2)]
    with inject("worker-crash"), ThreadPoolExecutor(max_workers=2) as pool:
        ms = [Measurement.from_dict(r) for r in pool.map(evaluate_isolated, specs)]
    assert len(ms) == 2
    assert all(m.status == "crash" and "crashed" in m.error for m in ms)
    assert all(m.score == float("inf") for m in ms)


def test_poison_listed_configs_are_skipped_on_warm_start(axpy, tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "publish-race")
    sched = S.divide_loop("i", knob("w", 8, choices=(2, 4, 8)), ["io", "ii"])
    space = Space(Param("w", (2, 4, 8)))
    lb = Leaderboard()
    tuner = Tuner(axpy, sched, space, {"n": 256}, repeats=1, leaderboard=lb)
    lb.record(tuner.key, Measurement({"w": 4}, status="crash", error="SIGSEGV"))

    result = tuner.tune()
    assert result.skipped == [{"w": 4}]
    assert all(m.config != {"w": 4} for m in result.measurements)
    assert result.best.ok

    # the poisoned entry survives the tune: a later warm start still skips it
    assert config_key({"w": 4}) in lb.poisoned(tuner.key)


def test_poisoned_default_is_reported_synthetically_not_rerun(axpy, tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "publish-race")
    sched = S.divide_loop("i", knob("w", 8, choices=(2, 4, 8)), ["io", "ii"])
    space = Space(Param("w", (2, 4, 8)))
    lb = Leaderboard()
    tuner = Tuner(axpy, sched, space, {"n": 256}, repeats=1, leaderboard=lb)
    lb.record(tuner.key, Measurement({"w": 8}, status="timeout", error="hung"))

    result = tuner.tune()
    assert result.default.status == "crash"
    assert "poison-listed" in result.default.error
    assert all(m.config != {"w": 8} for m in result.measurements)


def test_all_candidates_poisoned_is_a_loud_error(axpy, tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "publish-race")
    sched = S.divide_loop("i", knob("w", 8, choices=(2, 4, 8)), ["io", "ii"])
    space = Space(Param("w", (2, 4, 8)))
    lb = Leaderboard()
    tuner = Tuner(axpy, sched, space, {"n": 256}, repeats=1, leaderboard=lb)
    for w in (2, 4, 8):
        lb.record(tuner.key, Measurement({"w": w}, status="crash", error="boom"))
    with pytest.raises(TuneError, match="poison-listed"):
        tuner.tune()
