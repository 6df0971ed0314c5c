"""The end-to-end tuner: the grid sweep, warm starts, knob edge cases."""

from __future__ import annotations

import pytest

from repro.api import KnobError, ReplayCache, S, knob, seq
from repro.interp import check_equiv
from repro.tune import Leaderboard, Param, Space, TuneError, Tuner, threads_param


def _sched():
    return seq(
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", knob("w", 8, choices=(2, 4, 8)), ["iio", "iii"]),
    )


def _space():
    return Space(Param("w", (2, 4, 8)))


def test_grid_tune_finds_a_best_config_and_counts_cache_hits(axpy):
    cache = ReplayCache()
    tuner = Tuner(axpy, _sched(), _space(), {"n": 256}, repeats=1, cache=cache)
    result = tuner.tune()
    assert result.best.ok
    assert result.best_config["w"] in (2, 4, 8)
    # the defaults always compete, so tuned can never lose to them
    assert result.best.time_s <= result.default.time_s
    assert result.speedup_vs_default() >= 1.0
    # replay-cache hit counting across the sweep: the knob-free prefix is
    # applied once and hit by every other candidate
    assert result.cache_stats["hits"] >= 2
    assert result.cache_stats == cache.stats()
    # the tuned procedure still computes the same function
    assert check_equiv(axpy, tuner.runner.scheduled(result.best_config), {"n": 256})


def test_empty_space_degenerates_to_measuring_the_defaults(axpy):
    result = Tuner(axpy, _sched(), Space(), {"n": 64}, repeats=1).tune()
    assert len(result.measurements) == 1
    assert result.best.config == result.default.config == {"w": 8}
    assert result.speedup_vs_default() == 1.0


def test_single_point_space(axpy):
    result = Tuner(axpy, _sched(), Space(Param("w", (4,))), {"n": 64}, repeats=1).tune()
    # two candidates: the defaults (w=8) and the single point (w=4)
    assert len(result.measurements) == 2
    assert {m.config["w"] for m in result.measurements} == {4, 8}


def test_invalid_choice_mid_sweep_raises_knob_error(axpy):
    # 3 is not among the knob's declared choices: the sweep must blow up,
    # not score the candidate as a prunable failure
    space = Space(Param("w", (2, 3, 4)))
    with pytest.raises(KnobError):
        Tuner(axpy, _sched(), space, {"n": 64}, repeats=1).tune()


def test_unknown_space_param_raises_knob_error_up_front(axpy):
    with pytest.raises(KnobError, match="unknown knob.*nope"):
        Tuner(axpy, _sched(), Space(Param("nope", (1, 2))), {"n": 64})


def test_scheduling_failures_are_pruned_not_fatal(gemv):
    # gemv asserts M % 8 == 0, so perfect division by 8 is provable and by 7
    # is not: the w=7 candidate fails scheduling and must be pruned while the
    # sweep carries on to the w=8 winner
    sched = seq(S.divide_loop("i", knob("w", 8), ["io", "ii"], perfect=True))
    result = Tuner(
        gemv, sched, Space(Param("w", (7, 8))), {"M": 16, "N": 8}, repeats=1
    ).tune()
    assert result.best.ok and result.best_config == {"w": 8}
    failed = [m for m in result.measurements if not m.ok]
    assert len(failed) == 1 and failed[0].config == {"w": 7}


def test_a_failed_default_is_measured_once(gemv, monkeypatch):
    # the defaults (w=7) fail scheduling; their measurement is this sweep's,
    # not a second evaluation after it
    from repro.tune.runner import ScheduleRunner

    seen = []
    real = ScheduleRunner.evaluate

    def spy(self, config=None):
        seen.append(dict(config))
        return real(self, config)

    monkeypatch.setattr(ScheduleRunner, "evaluate", spy)
    sched = seq(S.divide_loop("i", knob("w", 7), ["io", "ii"], perfect=True))
    result = Tuner(
        gemv, sched, Space(Param("w", (7, 8))), {"M": 16, "N": 8}, repeats=1
    ).tune()
    assert seen == [{"w": 7}, {"w": 8}]
    assert result.default.status == "error"
    assert result.best_config == {"w": 8}


def test_the_reserved_thread_knob_is_tunable(axpy, monkeypatch):
    from repro.tune import runner as runner_mod

    seen = []
    real = runner_mod.run_proc

    def spy(proc, *args, threads=None, **kwargs):
        seen.append(threads)
        return real(proc, *args, threads=threads, **kwargs)

    monkeypatch.setattr(runner_mod, "run_proc", spy)
    space = Space(Param("w", (4, 8)), threads_param(1, 2))
    result = Tuner(axpy, _sched(), space, {"n": 64}, repeats=1).tune()
    assert all("num_threads" in m.config for m in result.measurements)
    assert {1, 2} <= set(seen)


def test_all_candidates_failing_is_a_tune_error(axpy):
    # perfect division of the symbolic n is never provable: every candidate
    # fails scheduling, which the tuner reports as a TuneError
    sched = seq(S.divide_loop("i", knob("w", 8), ["io", "ii"], perfect=True))
    with pytest.raises(TuneError, match="no successful measurement"):
        Tuner(axpy, sched, Space(Param("w", (7, 8))), {"n": 64}, repeats=1).tune()


def test_leaderboard_warm_start_seeds_the_candidates(tmp_path, axpy):
    path = str(tmp_path / "board.json")
    first = Tuner(axpy, _sched(), _space(), {"n": 256}, repeats=1,
                  leaderboard=Leaderboard(path)).tune()

    warm = Tuner(axpy, _sched(), _space(), {"n": 256}, repeats=1,
                 leaderboard=Leaderboard(path))
    cands = warm.candidates()
    # defaults first, then the persisted champion (deduplicated if they agree)
    assert cands[0] == {"w": 8}
    assert first.best_config in cands[:2]
    # and the champion's presence survives a fresh tune
    again = warm.tune()
    assert again.best.ok
