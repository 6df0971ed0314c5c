"""Concurrent leaderboards: merge-on-save semantics, the N-process
zero-lost-writes acceptance test, the fixed-``.tmp`` race regression, and
the lock-contention degradation path."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings

import pytest

from repro import obs
from repro.guard import faults
from repro.guard.faults import inject
from repro.persist import FileLock, read_record
from repro.tune.results import Leaderboard, _merge_entry
from repro.tune.runner import Measurement

KEY = "deadbeef/sched-fp/test-machine"


def _ok(w, t):
    return Measurement({"w": w}, time_s=t, repeats=1, status="ok")


# -- merge rules -------------------------------------------------------------


def test_merge_keeps_the_minimum_ok_time():
    a = _ok(1, 0.5).to_dict()
    b = _ok(1, 0.2).to_dict()
    assert _merge_entry(a, b)["time_s"] == 0.2
    assert _merge_entry(b, a)["time_s"] == 0.2


def test_merge_poison_wins_over_ok():
    ok = _ok(1, 0.2).to_dict()
    crash = Measurement({"w": 1}, status="crash", error="boom").to_dict()
    assert _merge_entry(ok, crash)["status"] == "crash"
    assert _merge_entry(crash, ok)["status"] == "crash"


def test_merge_ok_beats_plain_error():
    ok = _ok(1, 0.2).to_dict()
    err = Measurement({"w": 1}, status="error", error="refused").to_dict()
    assert _merge_entry(ok, err)["status"] == "ok"
    assert _merge_entry(err, ok)["status"] == "ok"


def test_merge_boards_recomputes_the_champion(tmp_path):
    board = Leaderboard()
    board.record(KEY, _ok(1, 0.5))
    other = Leaderboard()
    other.record(KEY, _ok(2, 0.1))
    board.merge(other.to_dict()["boards"])
    assert board.best(KEY)["config"] == {"w": 2}
    assert len(board.entries(KEY)) == 2


def test_two_boards_saving_to_one_path_lose_nothing(tmp_path):
    """The single-process distillation of merge-on-save: both boards loaded
    an empty file, both save — the second save must merge, not clobber."""
    path = str(tmp_path / "board.json")
    a = Leaderboard(path)
    b = Leaderboard(path)
    a.record(KEY, _ok(1, 0.5))
    b.record(KEY, _ok(2, 0.3))
    a.save()
    b.save()  # b never saw a's measurement in memory
    final = Leaderboard(path)
    assert {e["config"]["w"] for e in final.entries(KEY)} == {1, 2}
    assert final.best(KEY)["config"] == {"w": 2}


# -- the acceptance test: N=8 processes, zero lost writes --------------------

_WORKER = """
import sys
sys.path.insert(0, {src!r})
from repro.tune.results import Leaderboard
from repro.tune.runner import Measurement

worker = int(sys.argv[1])
path = sys.argv[2]
key = {key!r}
for i in range(5):
    board = Leaderboard(path, lock_timeout_s=30.0)   # fresh load each round
    m = Measurement({{"w": worker, "i": i}}, time_s=0.001 * (worker + 1) + i,
                    repeats=1, status="ok")
    board.record(key, m)
    board.save()                                     # interleaves with 7 peers
"""


def test_eight_concurrent_tuners_lose_zero_measurements(tmp_path, repo_python_env):
    """ISSUE 8 acceptance: 8 processes hammer one board path, each saving 5
    distinct measurements mid-stream; the final board equals the union."""
    path = str(tmp_path / "board.json")
    src = repo_python_env["PYTHONPATH"].split(os.pathsep)[0]
    script = _WORKER.format(src=src, key=KEY)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(w), path],
            env=repo_python_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for w in range(8)
    ]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
    final = Leaderboard(path)
    got = {(e["config"]["w"], e["config"]["i"]): e["time_s"] for e in final.entries(KEY)}
    want = {(w, i): 0.001 * (w + 1) + i for w in range(8) for i in range(5)}
    assert got == want  # every one of the 40 measurements survived
    assert final.best(KEY)["config"] == {"w": 0, "i": 0}
    # and the on-disk record is one intact checksummed file, no staging junk
    assert read_record(path)["version"] == 1
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_threaded_saves_never_race_on_a_staging_name(tmp_path):
    """Regression for the old fixed-``<path>.tmp`` sibling: concurrent saves
    collided on the staging name and crashed with FileNotFoundError."""
    path = str(tmp_path / "board.json")
    errors = []

    def hammer(worker):
        try:
            for i in range(10):
                board = Leaderboard(path, lock_timeout_s=30.0)
                board.record(KEY, _ok(worker * 100 + i, 0.1 + worker))
                board.save()
        except BaseException as err:  # noqa: BLE001
            errors.append(err)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = Leaderboard(path)
    assert len(final.entries(KEY)) == 80  # all 8x10 distinct configs merged


# -- lock-contention degradation ---------------------------------------------


def test_wedged_lock_degrades_to_memory_with_a_fallback_event(tmp_path):
    path = str(tmp_path / "board.json")
    board = Leaderboard(path, lock_timeout_s=0.15)
    board.record(KEY, _ok(1, 0.5))
    wedge = FileLock(f"{path}.lock", timeout_s=5.0).acquire()
    try:
        with pytest.warns(RuntimeWarning, match="in memory only"):
            board.save()
    finally:
        wedge.release()
    assert not os.path.exists(path)  # nothing was published
    events = [e for e in obs.events() if e.reason == "lock-contention"]
    assert len(events) == 1
    assert events[0].proc == "board.json"
    assert events[0].stage == "persist->memory"
    # the measurements stayed on the object: the next save publishes them
    board.save()
    assert Leaderboard(path).best(KEY)["config"] == {"w": 1}


@pytest.mark.chaos_tolerates("lock-timeout")
def test_lock_timeout_fault_exercises_the_same_path(tmp_path):
    path = str(tmp_path / "board.json")
    board = Leaderboard(path)
    board.record(KEY, _ok(1, 0.5))
    with inject("lock-timeout", times=1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            board.save()
    assert not os.path.exists(path)
    assert obs.count("fallback.lock-contention")
    if "lock-timeout" not in faults.env_faults():
        board.save()  # fault consumed: publishes fine
        assert Leaderboard(path).best(KEY) is not None
