"""Tuner hardening: candidate timeouts, worker crashes, and the poison list."""

from __future__ import annotations

import pytest

from repro.api import S, knob
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


def test_candidate_timeout_scores_timeout_not_stall(axpy, tolerates):
    tolerates("cc-missing", "cc-transient", "artifact-corrupt", "publish-race")
    runner = ScheduleRunner(
        axpy, S.simplify(), {"n": 2_000_000}, repeats=100, timeout_s=0.05
    )
    m = runner.evaluate({})
    assert m.status == "timeout"
    assert "wall-clock" in m.error
    assert m.score == float("inf")

    # the alarm is fully disarmed afterwards: a fast candidate still times
    fast = ScheduleRunner(axpy, S.simplify(), {"n": 64}, repeats=1, timeout_s=30)
    assert fast.evaluate({}).ok


def test_runner_rejects_bad_timeouts_and_backends(axpy):
    from repro.interp import InterpError

    with pytest.raises(TuneError, match="timeout_s"):
        ScheduleRunner(axpy, S.simplify(), {"n": 8}, timeout_s=0)
    with pytest.raises(InterpError, match="ScheduleRunner"):
        ScheduleRunner(axpy, S.simplify(), {"n": 8}, backend="native")


def test_worker_crash_fault_is_contained_by_parallel_evaluation(tolerates):
    tolerates("worker-crash")
    # REPRO_FAULTS (not inject) because the fault must fire in the *worker*
    # process, which does not inherit in-process injected state
    import os

    from concurrent.futures import ThreadPoolExecutor

    base = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 256},
        "repeats": 1,
    }
    env_before = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = "worker-crash"
    try:
        # two candidates at once, each in a worker of its own, the way the
        # service's timing threads measure them
        specs = [dict(base, config={"interleave": i}) for i in (1, 2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            ms = [Measurement.from_dict(r) for r in pool.map(evaluate_isolated, specs)]
    finally:
        if env_before is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = env_before
    assert len(ms) == 2
    assert all(m.status == "crash" for m in ms)
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
