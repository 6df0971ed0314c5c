"""``ScheduleRunner._time`` must rank kernels, not dispatch.

It times ``run_proc``.  While a warm ``run_proc(backend="c")`` re-lowered
the procedure to C on every call (twice), the timed repeats of a small
candidate measured the size of its C source.  The repeats now lower nothing."""

from __future__ import annotations

import pytest

from repro.api import S
from repro.backend import native
from repro.guard import faults
from repro.tune import ScheduleRunner
from repro.tune import runner as runner_mod

pytestmark = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


def test_timed_repeats_of_a_c_evaluation_never_lower(axpy, tmp_path, monkeypatch, emits):
    if faults.env_faults():
        pytest.skip("exact lowering counts do not hold with an env fault armed")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    emitted_after_call = []  # one entry per run_proc the runner makes
    real_run = runner_mod.run_proc

    def run_proc(*args, **kwargs):
        out = real_run(*args, **kwargs)
        emitted_after_call.append(len(emits))
        return out

    monkeypatch.setattr(runner_mod, "run_proc", run_proc)

    runner = ScheduleRunner(
        axpy, S.divide_loop("i", 8, ["io", "ii"], tail="cut"), {"n": 256}, repeats=5, backend="c"
    )
    m = runner.evaluate({})
    assert m.ok and m.time_s > 0
    # the warm-up call lowered once (not twice); the five timed calls not at all
    assert emitted_after_call == [1] * 6
    native.clear_memo()
