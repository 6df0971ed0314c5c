"""Resumable tuning: the checkpoint journal, and the ISSUE 8 acceptance
test — a SIGKILLed tuner restarts and re-measures only unfinished configs."""

from __future__ import annotations

import multiprocessing

from repro.api import S, knob, seq
from repro.guard.faults import inject
from repro.persist import Journal
from repro.tune import Param, Space, Tuner, full_config
from repro.tune.results import config_key

mp_fork = multiprocessing.get_context("fork")


def _sched():
    return seq(
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", knob("w", 8, choices=(2, 4, 8)), ["iio", "iii"]),
    )


def _space():
    return Space(Param("w", (2, 4, 8)))


def _tuner(axpy, checkpoint):
    return Tuner(axpy, _sched(), _space(), {"n": 64}, repeats=1, checkpoint=checkpoint)


def _count_evals(tuner):
    """Instrument the runner: how many configs actually get measured."""
    measured = []
    orig = tuner.runner.evaluate

    def spy(config):
        measured.append(dict(config))
        return orig(config)

    tuner.runner.evaluate = spy
    return measured


def test_completed_run_journals_every_measurement(axpy, tmp_path):
    ckpt = str(tmp_path / "tune.jsonl")
    result = _tuner(axpy, ckpt).tune()
    recs = Journal(ckpt).entries()
    assert len(recs) == len(result.measurements) == 3  # w in {2,4,8}
    assert all(rec["key"] == result.key for rec in recs)
    assert {r["measurement"]["config"]["w"] for r in recs} == {2, 4, 8}


def test_restarting_a_finished_tune_re_measures_nothing(axpy, tmp_path):
    ckpt = str(tmp_path / "tune.jsonl")
    first = _tuner(axpy, ckpt).tune()
    second_tuner = _tuner(axpy, ckpt)
    measured = _count_evals(second_tuner)
    second = second_tuner.tune()
    assert measured == []  # the whole sweep came from the journal
    assert len(second.resumed) == 3 and second.measurements == []
    assert second.best_config == first.best_config
    assert second.to_dict()["resumed"] == 3


def test_a_torn_final_journal_line_only_repeats_that_config(axpy, tmp_path):
    ckpt = str(tmp_path / "tune.jsonl")
    _tuner(axpy, ckpt).tune()
    # tear the last line, as a crash mid-append would
    raw = open(ckpt, "rb").read().rstrip(b"\n")
    cut = raw.rfind(b"\n")  # keep everything up to the final line's start
    with open(ckpt, "wb") as f:
        f.write(raw[: cut + 1 + (len(raw) - cut) // 2])
    j = Journal(ckpt)
    intact = j.entries()
    assert j.torn == 1 and len(intact) == 2
    tuner = _tuner(axpy, ckpt)
    measured = _count_evals(tuner)
    result = tuner.tune()
    assert len(measured) == 1  # exactly the torn config, nothing else
    done = {r["measurement"]["config"]["w"] for r in intact}
    assert measured[0]["w"] not in done
    assert len(result.resumed) == 2


def test_checkpoints_are_scoped_by_board_key(axpy, gemv, tmp_path):
    # one journal file shared across different tunes never cross-pollutes
    ckpt = str(tmp_path / "tune.jsonl")
    _tuner(axpy, ckpt).tune()
    sched = seq(S.divide_loop("i", knob("w", 8, choices=(4, 8)), ["io", "ii"]))
    other = Tuner(gemv, sched, Space(Param("w", (4, 8))), {"M": 16, "N": 8},
                  repeats=1, checkpoint=ckpt)
    measured = _count_evals(other)
    other.tune()
    assert len(measured) == 2  # axpy's journal entries did not count for gemv


def _victim(axpy, ckpt, skip_n):
    # child process: die at the (skip_n+1)-th journal append, mid-tune.
    # kill-mid-publish SIGKILLs *this* process — that is the point.
    with inject("kill-mid-publish", skip=skip_n):
        _tuner(axpy, ckpt).tune()


def test_sigkilled_tuner_resumes_only_unfinished_configs(axpy, tmp_path):
    """ISSUE 8 acceptance: kill -9 a tuner mid-run; the restart restores the
    journaled measurements and re-measures only what the journal misses."""
    ckpt = str(tmp_path / "tune.jsonl")
    victim = mp_fork.Process(target=_victim, args=(axpy, ckpt, 1))
    victim.start()
    victim.join(120)
    assert victim.exitcode == -9  # died by SIGKILL at the persist site

    journaled = Journal(ckpt).entries()
    done = {config_key(r["measurement"]["config"]) for r in journaled}
    assert 1 <= len(done) < 3  # it really was mid-run: some done, not all

    tuner = _tuner(axpy, ckpt)
    measured = _count_evals(tuner)
    result = tuner.tune()
    # exactly the complement was re-measured — no journaled config re-ran
    assert {config_key(c) for c in measured} == {
        config_key(full_config(tuner.schedule, tuner.space, {"w": w})) for w in (2, 4, 8)
    } - done
    assert {config_key(m.config) for m in result.resumed} == done
    assert result.best.ok
    assert len(result.resumed) + len(result.measurements) == 3
