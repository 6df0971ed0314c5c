"""The one registry (``repro.obs``): prefixes, declared names, the bounded
event ring, and the thread-local watcher stack.  Exactness under threads is
in ``tests/ir/test_thread_safety.py``."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.api import S
from repro.guard.events import record_fallback
from repro.primitives import count_rewrites


def test_reset_of_one_prefix_leaves_the_others_alone():
    obs.add("guard.ok")
    obs.add("native.compiles", 3)
    obs.add("retry.cc-invoke")
    obs.reset("guard.")
    assert obs.count("guard.ok") == 0
    assert obs.count("native.compiles") == 3
    assert obs.counters("retry.") == {"cc-invoke": 1}


def test_declared_names_report_zero_and_survive_a_reset():
    import repro.guard.quarantine  # noqa: F401 - declares the five guard.* names

    zeros = dict.fromkeys(("guarded_runs", "ok", "crash", "timeout", "error"), 0)
    assert obs.counters("guard.") == zeros
    obs.add("guard.ok")
    obs.add("guard.undeclared")
    assert obs.counters("guard.") == {**zeros, "ok": 1, "undeclared": 1}
    obs.reset("guard.")
    assert obs.counters("guard.") == zeros


def test_peak_is_a_running_maximum():
    for v in (2, 8, 4):
        obs.peak("par.threads_max", v)
    assert obs.count("par.threads_max") == 8


def test_the_ring_drops_old_events_while_totals_stay_exact():
    n = obs.MAX_EVENTS + 100
    for i in range(n):
        record_fallback(f"p{i}", "c->compiled", "ring-test")
    assert obs.count("fallback.ring-test") == n
    kept = obs.events()
    assert len(kept) == obs.MAX_EVENTS == 512
    assert (kept[0].proc, kept[-1].proc) == ("p100", f"p{n - 1}")  # newest last
    obs.reset("fallback.")
    assert obs.events() == [] and obs.counters("fallback.") == {}


def test_a_reset_elsewhere_keeps_the_ring():
    record_fallback("p", "c->compiled", "ring-test")
    obs.reset("guard.")
    assert len(obs.events()) == 1


def test_watchers_see_only_their_own_thread(axpy):
    sched = S.divide_loop("i", 16, ["io", "ii"])
    seen = []

    class Names(obs.Watcher):
        def on_primitive_begin(self, name, depth, proc, args, kwargs):
            seen.append((name, depth))

    with Names(), count_rewrites() as mine:
        other = threading.Thread(target=lambda: sched.apply(axpy, {}))
        other.start()
        other.join(timeout=60)
        assert not other.is_alive()
        assert seen == [] and mine.total == 0  # another thread's rewrites
        assert obs.count("sched.rewrites") > 0  # ... which the process total has
        sched.apply(axpy, {})
    assert seen[0] == ("divide_loop", 0) and mine.total == len(seen)
    assert obs.watchers() == () and obs.current_primitive() is None


def test_a_watcher_that_raises_at_begin_leaves_no_primitive_on_the_stack(axpy):
    sched = S.divide_loop("i", 16, ["io", "ii"])

    class Boom(obs.Watcher):
        def on_primitive_begin(self, name, depth, proc, args, kwargs):
            raise RuntimeError("boom")

    with Boom():
        with pytest.raises(RuntimeError, match="boom"):
            sched.apply(axpy, {})
    assert obs.current_primitive() is None
    with count_rewrites() as after:  # depth is 0 again for the next primitive
        sched.apply(axpy, {})
    assert after.total > 0


def test_a_bare_watcher_ignores_everything(axpy):
    from repro import SchedulingError, delete_pass, divide_loop, insert_pass, unroll_loop

    with obs.Watcher():
        out = divide_loop(axpy, "i", 4, ["io", "ii"], tail="guard")
        with pytest.raises(SchedulingError):
            unroll_loop(axpy, "i")  # refused: the bound is not a constant
        padded = insert_pass(out, out.find("y[_] += _").after())
        stmt = padded.find("pass")
        assert not delete_pass(padded).forward(stmt).is_valid()
    assert "io" in str(out) and obs.watchers() == ()
