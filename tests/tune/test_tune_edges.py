"""Tuning plumbing on its rarer inputs: merging board entries where one side
is missing or failed, a leaderboard file that cannot be read, spec
references of the wrong shape, a guarded candidate that raised, a space built
from a bad value, and a checkpoint line that is not a measurement."""
from __future__ import annotations

import math

import pytest

from repro.blas import LEVEL1_KERNELS, level1_schedule
from repro.tune import Leaderboard, Space, TuneError, Tuner
from repro.tune.results import _merge_entry
from repro.tune.runner import Measurement, _resolve_ref, evaluate_isolated
from repro.tune.tuner import TuneResult

OK_FAST = {"status": "ok", "time_s": 1.0}
OK_SLOW = {"status": "ok", "time_s": 2.0}
ERR = {"status": "error", "time_s": None}
CRASH = {"status": "crash", "time_s": None}


@pytest.mark.parametrize("mine, theirs, kept", [
    (OK_FAST, None, OK_FAST),
    (None, OK_FAST, OK_FAST),
    (OK_SLOW, OK_FAST, OK_FAST),
    (OK_FAST, ERR, OK_FAST),
    (ERR, OK_FAST, OK_FAST),
    (ERR, dict(ERR, error="later"), dict(ERR, error="later")),
    (CRASH, OK_FAST, CRASH),
])
def test_merging_two_entries_for_one_config(mine, theirs, kept):
    assert _merge_entry(mine, theirs) == kept


def test_a_leaderboard_path_that_cannot_be_read_starts_a_fresh_board(tmp_path):
    with pytest.warns(RuntimeWarning, match="is unreadable"):
        board = Leaderboard(str(tmp_path))  # a directory: opening it fails
    assert board.to_dict()["boards"] == {}


def test_merge_skips_a_malformed_board():
    board = Leaderboard()
    board.merge({"k": "not a board", "k2": {"entries": {"c": OK_FAST}}})
    assert board.entries("k2") and not board.entries("k")


@pytest.mark.parametrize("path, args, message", [
    ("repro.blas.LEVEL1_KERNELS", (), "must look like 'pkg.mod:attr'"),
    ("repro.blas:LEVEL1_KERNELS", (), "is a mapping; pass exactly one key arg"),
])
def test_a_spec_reference_must_name_one_object(path, args, message):
    with pytest.raises(TuneError, match=message):
        _resolve_ref(path, args)


def test_a_reference_to_a_plain_value_is_the_value():
    assert _resolve_ref("repro.tune.runner:THREADS_KNOB") == "num_threads"


def test_a_candidate_that_raises_in_its_guard_is_a_tune_error():
    spec = {"proc": "repro.blas:LEVEL1_KERNELS", "proc_args": ["saxpy"], "schedule": "repro.blas:NO_SUCH",
            "size_env": {"n": 64}, "repeats": 1, "timeout_s": 60}
    with pytest.raises(TuneError, match="evaluate_isolated: AttributeError"):
        evaluate_isolated(spec)


def test_a_space_and_a_tuner_refuse_the_wrong_kinds():
    with pytest.raises(TuneError, match="Space: expected Param or dict, got int"):
        Space(3)
    with pytest.raises(TuneError, match="Tuner: expected a Space, got list"):
        Tuner(LEVEL1_KERNELS["saxpy"], level1_schedule(), [1, 2], size_env={"n": 64})


def test_a_speedup_needs_both_measurements():
    bad = Measurement({}, status="error", error="no")
    good = Measurement({}, status="ok", time_s=1.0)
    result = TuneResult(best=good, default=bad, measurements=[good, bad], key="k", machine="m")
    assert math.isnan(result.speedup_vs_default())


def test_a_checkpoint_line_that_is_not_a_measurement_is_skipped(tmp_path):
    from repro.persist.journal import Journal

    path = str(tmp_path / "ck.jsonl")
    tuner = Tuner(LEVEL1_KERNELS["saxpy"], level1_schedule(), Space(interleave=[1]), size_env={"n": 64},
                  checkpoint=path)
    journal = Journal(path, fsync=False)
    journal.append({"key": tuner.key, "measurement": {"no": "config"}})
    journal.append({"key": tuner.key})
    journal.close()
    assert tuner._resume([{"interleave": 1}]) == []
