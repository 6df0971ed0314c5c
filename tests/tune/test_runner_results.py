"""Candidate evaluation and the persisted leaderboard (repro.tune)."""

from __future__ import annotations

import os

import pytest

from repro.api import KnobError, ReplayCache, S, knob, lift_op, seq
from repro.persist import machine_id, write_record
from repro.tune import (
    Leaderboard,
    Measurement,
    ScheduleRunner,
    TuneError,
    board_key,
    config_key,
    evaluate_parallel,
    evaluate_spec,
    split_prefix,
)


def _knobbed_seq():
    """divide twice: a knob-free prefix step and a knobbed suffix step."""
    return seq(
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", knob("w", 8, choices=(2, 4, 8)), ["iio", "iii"]),
    )


def test_split_prefix_cuts_before_the_first_swept_step():
    sched = _knobbed_seq()
    prefix, suffix = split_prefix(sched, ["w"])
    assert prefix is not None and len(prefix.steps) == 1
    assert len(suffix.steps) == 1
    # nothing to split when the sweep hits the first step or no knob is swept
    assert split_prefix(sched, [])[0] is None
    assert split_prefix(sched.steps[1], ["w"])[0] is None
    first_knobbed = seq(S.divide_loop("i", knob("w", 8), ["io", "ii"]), S.simplify())
    assert split_prefix(first_knobbed, ["w"])[0] is None


@pytest.fixture
def numpy_compiles(monkeypatch):
    """The NumPy-engine compilations (cache misses of ``compile_proc``)."""
    from repro.interp import compile as engine

    engine.clear_compile_cache()
    calls = []
    real = engine._Lowerer.compile

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(engine._Lowerer, "compile", counting)
    return calls


def test_runner_times_and_shares_the_prefix(axpy, numpy_compiles):
    cache = ReplayCache()
    runner = ScheduleRunner(
        axpy, _knobbed_seq(), {"n": 256}, repeats=1, cache=cache, swept=["w"]
    )
    ms = [runner.evaluate(c) for c in ({"w": 2}, {"w": 4}, {"w": 8})]
    assert all(m.ok and m.time_s > 0 for m in ms)
    # the untimed warm-up compiles each candidate once; timed runs hit
    assert len(numpy_compiles) == 3
    # the knob-free prefix ran once and hit for the two later candidates
    assert cache.hits >= 2


def test_runner_on_the_c_backend_never_compiles_for_the_numpy_engine(
    axpy, tmp_path, monkeypatch, numpy_compiles
):
    from repro.backend import native

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    m = ScheduleRunner(axpy, S.simplify(), {"n": 64}, repeats=1, backend="c").evaluate({})
    assert m.ok
    if native.find_cc() is not None:  # without cc the ladder degrades to NumPy
        assert numpy_compiles == []
    native.clear_memo()


def test_runner_prunes_scheduling_failures_but_raises_knob_errors(axpy):
    # unroll_loop needs a constant-bound loop; 'i' runs to symbolic n
    runner = ScheduleRunner(axpy, S.unroll_loop("i"), {"n": 64}, repeats=1)
    m = runner.evaluate({})
    assert not m.ok and m.status == "error" and m.error
    assert m.score == float("inf")

    knobbed = ScheduleRunner(axpy, _knobbed_seq(), {"n": 256}, repeats=1)
    with pytest.raises(KnobError):
        knobbed.evaluate({"w": 3})  # 3 is outside the knob's declared choices


def test_runner_prunes_runtime_failures_too():
    # scheduling succeeds, but the kernel's precondition fails at run time:
    # the candidate must score as an error, not abort the tune
    from repro.api import S
    from repro.frontend.decorators import proc_from_source

    p = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM):\n"
        "    assert n % 16 == 0\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
    )
    m = ScheduleRunner(p, S.simplify(), {"n": 30}, repeats=1).evaluate({})
    assert not m.ok and m.status == "error"
    assert m.score == float("inf")


def test_runner_rejects_non_schedule_inputs(axpy):
    with pytest.raises(TuneError):
        ScheduleRunner(axpy, object(), {"n": 8})
    with pytest.raises(TuneError):
        ScheduleRunner(object(), S.simplify(), {"n": 8})


def test_measurement_roundtrip():
    m = Measurement({"w": 4}, time_s=0.5, repeats=3)
    assert Measurement.from_dict(m.to_dict()).to_dict() == m.to_dict()
    bad = Measurement({"w": 2}, status="error", error="nope")
    assert not bad.ok and bad.score == float("inf")


def test_leaderboard_records_minima_and_persists(tmp_path, axpy):
    path = tmp_path / "board.json"
    lb = Leaderboard(str(path))
    key = board_key(axpy, _knobbed_seq())
    lb.record(key, Measurement({"w": 4}, time_s=2.0, repeats=1))
    lb.record(key, Measurement({"w": 4}, time_s=1.0, repeats=1))  # improves
    lb.record(key, Measurement({"w": 4}, time_s=3.0, repeats=1))  # ignored
    lb.record(key, Measurement({"w": 8}, status="error", error="x"))
    lb.save()

    fresh = Leaderboard(str(path))
    assert fresh.best(key)["config"] == {"w": 4}
    assert fresh.best(key)["time_s"] == 1.0
    assert fresh.stats(key) == {
        "configs": 2,
        "ok": 1,
        "errors": 1,
        "poisoned": 0,
        "best": fresh.best(key),
    }
    # the machine id is baked into the key
    assert key.endswith(machine_id())


def test_leaderboard_quarantines_corrupt_and_future_files(tmp_path):
    # a truncated write from a killed tune must not brick every future tune:
    # the bad file is renamed aside (evidence preserved) and the board starts
    # fresh, with a warning
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.warns(RuntimeWarning, match="corrupt"):
        lb = Leaderboard(str(bad))
    assert lb.boards == {}
    assert not bad.exists()
    quarantined = list(tmp_path.glob("bad.json.corrupt-*"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text() == "{not json"

    future = tmp_path / "future.json"
    write_record(str(future), {"version": 99, "boards": {}})
    with pytest.warns(RuntimeWarning, match="version"):
        lb = Leaderboard(str(future))
    assert lb.boards == {}
    assert list(tmp_path.glob("future.json.corrupt-*"))

    # the fresh board saves over the old path normally afterwards
    lb.record("k", Measurement({"w": 2}, time_s=1.0, repeats=1))
    lb.save()
    assert Leaderboard(str(future)).best("k")["config"] == {"w": 2}


def test_leaderboard_poison_list():
    lb = Leaderboard()
    lb.record("k", Measurement({"w": 4}, time_s=1.0, repeats=1))
    lb.record("k", Measurement({"w": 8}, status="crash", error="SIGSEGV"))
    lb.record("k", Measurement({"w": 2}, status="timeout", error="hung"))
    lb.record("k", Measurement({"w": 16}, status="error", error="refused"))
    assert lb.poisoned("k") == {config_key({"w": 8}), config_key({"w": 2})}
    assert lb.is_poisoned("k", {"w": 8}) and not lb.is_poisoned("k", {"w": 16})
    assert lb.stats("k")["poisoned"] == 2

    # a crash overrides an earlier ok for the same config — and evicts it
    # from the championship
    assert lb.best("k")["config"] == {"w": 4}
    lb.record("k", Measurement({"w": 4}, status="crash", error="boom"))
    assert lb.is_poisoned("k", {"w": 4})
    assert lb.best("k") is None


def test_evaluate_spec_builds_from_importable_references():
    out = evaluate_spec(
        {
            "proc": "repro.blas:LEVEL1_KERNELS",
            "proc_args": ["saxpy"],
            "schedule": "repro.blas:level1_schedule",
            "config": {"interleave": 2},
            "size_env": {"n": 1024},
            "repeats": 1,
        }
    )
    assert out["status"] == "ok" and out["time_s"] > 0

    knob_err = evaluate_spec(
        {
            "proc": "repro.blas:LEVEL1_KERNELS",
            "proc_args": ["saxpy"],
            "schedule": "repro.blas:level1_schedule",
            "config": {"no_such_knob": 1},
            "size_env": {"n": 64},
            "repeats": 1,
        }
    )
    assert knob_err["status"] == "knob-error"


def test_board_key_is_stable_across_processes(axpy):
    # the persisted leaderboard's whole point: the key must not depend on
    # per-process hash randomization
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    key = board_key(axpy, _knobbed_seq(), "M")
    code = (
        "import sys; sys.path.insert(0, 'tests')\n"
        "from conftest import _axpy\n"
        "from repro.api import S, knob, seq\n"
        "from repro.tune import board_key\n"
        "s = seq(S.divide_loop('i', 16, ['io', 'ii']),\n"
        "        S.divide_loop('ii', knob('w', 8, choices=(2, 4, 8)), ['iio', 'iii']))\n"
        "print(board_key(_axpy, s, 'M'))\n"
    )
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(repo / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, cwd=str(repo), env=env,
        )
        assert out.stdout.strip() == key


def test_evaluate_parallel_survives_a_worker_crash():
    # a candidate that kills its worker outright (os._exit) must cost only
    # its own measurement, not the sweep
    ms = evaluate_parallel(
        {"proc": "os:_exit", "proc_args": [3], "schedule": "repro.blas:level1_schedule"},
        [{"interleave": 1}, {"interleave": 2}],
        max_workers=2,
    )
    assert len(ms) == 2
    assert all(m.status == "crash" and "crashed" in m.error for m in ms)
    assert all(m.score == float("inf") for m in ms)


def test_evaluate_parallel_isolates_candidates_and_reraises_knob_errors():
    base = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 1024},
        "repeats": 1,
    }
    ms = evaluate_parallel(base, [{"interleave": 1}, {"interleave": 2}], max_workers=2)
    assert [m.config for m in ms] == [{"interleave": 1}, {"interleave": 2}]
    assert all(m.ok for m in ms)
    with pytest.raises(KnobError):
        evaluate_parallel(base, [{"bogus": 1}], max_workers=1)


def _exit_on_4(proc, w):
    if w == 4:
        os._exit(3)  # a candidate whose code kills its worker outright
    return proc


def crash_on_w4():
    """A schedule that kills the process applying it when ``w`` is 4."""
    return lift_op(_exit_on_4)(knob("w", 2, choices=(2, 4, 8)))


def test_a_crash_costs_only_its_own_candidate():
    ms = evaluate_parallel(
        {
            "proc": "repro.blas:LEVEL1_KERNELS",
            "proc_args": ["saxpy"],
            "schedule": f"{__name__}:crash_on_w4",
            "size_env": {"n": 256},
            "repeats": 1,
        },
        [{"w": 2}, {"w": 4}, {"w": 8}],
        max_workers=3,
    )
    assert [m.config for m in ms] == [{"w": 2}, {"w": 4}, {"w": 8}]
    assert [m.status for m in ms] == ["ok", "crash", "ok"]
