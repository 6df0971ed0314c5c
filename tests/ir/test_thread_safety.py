"""Concurrency regression tests for the epoch-free caching scheme.

The schedule service applies schedules on a thread pool, so every shared
structure it leans on is hammered here from real threads: concurrent
``Procedure`` edits (structural-hash memos, the compile cache, the rewrite
counters), the per-procedure edit epochs that replaced the old process-global
epoch, and the exact lock-guarded counters of ``repro.obs``."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.api import S, knob, seq
from repro.api.trace import state_hash
from repro.guard.events import record_fallback
from repro.guard.retry import with_retry
from repro.primitives import counter


def _run_threads(n, fn):
    errors = []
    barrier = threading.Barrier(n)

    def wrapped(i):
        try:
            barrier.wait()
            fn(i)
        except Exception as exc:  # noqa: BLE001
            errors.append((i, exc))

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors


# -- concurrent Procedure edits ----------------------------------------------


def test_concurrent_edits_of_one_procedure_are_race_free(axpy):
    """8 threads × 25 rounds of divide+unroll on the SAME base Procedure.

    Procedures are immutable values: every thread must get the exact result
    a single-threaded run gets, no torn trees, no cross-thread memo damage."""
    sched = lambda w: seq(  # noqa: E731
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", w, ["iio", "iii"]),
        S.unroll_loop("iii"),
    )
    expected = {w: state_hash(sched(w).apply(axpy, {})) for w in (2, 4, 8)}

    def work(i):
        w = (2, 4, 8)[i % 3]
        for _ in range(25):
            out = sched(w).apply(axpy, {})
            assert state_hash(out) == expected[w]
            # the base is never perturbed by other threads' edits
            assert axpy.edit_epoch() == 0

    _run_threads(8, work)


def test_concurrent_knobbed_schedules_with_scoped_counters(axpy):
    """count_rewrites scopes are thread-local: a scope sees exactly its own
    thread's rewrites even while 7 other threads schedule concurrently."""
    sched = seq(
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", knob("w", 4, choices=(2, 4, 8)), ["iio", "iii"]),
    )
    with counter.count_rewrites() as reference:
        sched.apply(axpy, {"w": 4})
    per_run = reference.total
    assert per_run > 0

    def work(i):
        for _ in range(10):
            with counter.count_rewrites() as scope:
                sched.apply(axpy, {"w": (2, 4, 8)[i % 3]})
            assert scope.total == per_run, (scope.total, per_run)

    _run_threads(8, work)


def test_edit_epochs_are_per_procedure(axpy, gemv):
    """Editing one procedure never perturbs another's epoch — the property
    the old process-global epoch could not provide."""
    assert axpy.edit_epoch() == 0 and gemv.edit_epoch() == 0
    out1, trace1 = S.divide_loop("i", 16, ["io", "ii"]).apply_traced(axpy, {})
    assert out1.edit_epoch() > 0
    assert axpy.edit_epoch() == 0  # the parent is untouched
    assert gemv.edit_epoch() == 0  # unrelated procedures are untouched

    # a derived procedure's epoch grows monotonically with further edits
    out2 = S.unroll_loop("ii").apply(out1, {})
    assert out2.edit_epoch() > out1.edit_epoch()


def test_structural_hash_memo_is_stable_across_threads(axpy):
    """state_hash answers must agree from every thread (the permanent
    ``_shash_cache`` memo can be filled by racing threads — same value)."""
    results = [None] * 8

    def work(i):
        results[i] = state_hash(axpy)

    _run_threads(8, work)
    assert len(set(results)) == 1


# -- exact telemetry counters ------------------------------------------------


def test_fallback_counts_are_exact_under_threaded_hammering():
    per_thread, n = 500, 8

    def work(i):
        for _ in range(per_thread):
            record_fallback("p", "c->compiled", "stress-test")

    _run_threads(n, work)
    assert obs.counters("fallback.") == {"stress-test": per_thread * n}
    # the ring kept the newest records only; the total above lost none
    assert len(obs.events()) == obs.MAX_EVENTS < per_thread * n


def _divide_once(axpy, i):
    S.divide_loop("i", 16, ["io", "ii"]).apply(axpy, {})


def _retry_once(axpy, i):
    attempts = [0]

    def flaky():
        attempts[0] += 1
        if attempts[0] == 1:
            raise OSError("transient")
        return "ok"

    assert with_retry(flaky, attempts=2, base_delay_s=0, label="stress") == "ok"


def _count_three_layers(axpy, i):
    obs.add("native.memo_hits")
    obs.add("guard.ok", 2)
    obs.peak("par.threads_max", i + 1)


@pytest.mark.parametrize(
    "step",
    [_divide_once, _retry_once, _count_three_layers],
    ids=["sched.rewrites", "retry", "native+guard+par"],
)
def test_counters_are_exact_under_threads(axpy, step):
    """8 threads x 20 steps: every process-wide total is exactly 160 times
    what one step adds single-threaded — no lost read-modify-write on the
    one lock, whichever layers share it."""
    step(axpy, 0)
    each = obs.counters()
    assert any(each.values())
    obs.reset()
    per_thread, n = 20, 8

    def work(i):
        for _ in range(per_thread):
            step(axpy, i)

    _run_threads(n, work)
    got = obs.counters()
    # the one counter that is a maximum, not a sum
    each.pop("par.threads_max", None)
    assert got.pop("par.threads_max", 0) == (n if step is _count_three_layers else 0)
    assert got == {name: v * per_thread * n for name, v in each.items()}


# -- the compile cache -------------------------------------------------------


def test_concurrent_compilation_of_the_same_procedure(axpy):
    """Racing threads may both compile (the lock covers the map, not the
    compile) but every thread must get a working, consistent executable."""
    import numpy as np

    from repro.interp import run_proc

    def work(i):
        rng = np.random.default_rng(i)
        x = rng.standard_normal(64, dtype=np.float32)
        y = rng.standard_normal(64, dtype=np.float32)
        expect = y + 2.0 * x
        run_proc(axpy, n=64, a=np.float32(2.0), x=x, y=y)
        np.testing.assert_allclose(y, expect, rtol=1e-5)

    _run_threads(8, work)


def test_no_global_edit_epoch_remains():
    """The refactor's contract: no process-global mutation epoch anywhere in
    the IR layer (per-procedure epochs only)."""
    import repro.ir.nodes as nodes

    assert not hasattr(nodes, "mutation_epoch")
    assert not hasattr(nodes, "bump_mutation_epoch")
    assert not hasattr(nodes, "_mutation_epoch")
    assert hasattr(nodes, "edit_epoch") and hasattr(nodes, "set_edit_epoch")


# -- multicore par-loop execution under client concurrency -------------------


def test_concurrent_parallel_execution_keeps_exact_stats(axpy):
    """8 client threads each execute a compiled par kernel with threads=2:
    the par_for dispatches nest client concurrency over worker concurrency
    and the telemetry counters must stay exact (no lost or double counts)."""
    import numpy as np

    from repro.interp import run_proc
    from repro.primitives import parallelize_loop

    par = parallelize_loop(axpy, "i")
    per_thread, n_threads = 5, 8

    def work(i):
        rng = np.random.default_rng(i)
        for _ in range(per_thread):
            x = rng.standard_normal(257, dtype=np.float32)
            y = rng.standard_normal(257, dtype=np.float32)
            expect = y + np.float32(2.0) * x
            run_proc(par, n=257, a=np.float32(2.0), x=x, y=y,
                     backend="compiled", threads=2)
            np.testing.assert_allclose(y, expect, rtol=1e-5)

    _run_threads(n_threads, work)
    assert obs.count("par.par_loops") == per_thread * n_threads
    # client threads are top-level dispatchers, never nested workers
    assert obs.count("par.serial_degrades") == 0


def test_eight_clients_schedule_and_execute_par_kernels(tmp_path):
    """The full stack under contention: 8 clients hit one schedule service
    (whose workers apply blur's ``parallel("y")`` schedule) while each client
    simultaneously executes multicore par kernels in-process.  Zero lost
    replies, identical scheduled hashes, exact request counters, and every
    numeric result correct."""
    import asyncio
    import threading as _threading
    import time as _time

    import numpy as np

    from repro.interp import run_proc
    from repro.primitives import parallelize_loop
    from repro.service import ScheduleService, ServiceClient

    service = ScheduleService(state_dir=str(tmp_path / "state"), scheduling_workers=4)
    loop = asyncio.new_event_loop()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        loop.run_until_complete(service.serve_forever())
        loop.run_until_complete(asyncio.sleep(0.05))
        loop.close()

    server_thread = _threading.Thread(target=serve, daemon=True)
    server_thread.start()
    deadline = _time.monotonic() + 10
    while service._server is None:
        assert _time.monotonic() < deadline, "service did not start"
        _time.sleep(0.01)

    BLUR = {"ref": "repro.halide:make_blur"}
    BLUR_SCHED = {"ref": "repro.halide:blur_schedule"}

    from repro import proc_from_source

    dotp = parallelize_loop(
        proc_from_source(
            "def dot_stress(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, out: f32[1] @ DRAM):\n"
            "    for i in seq(0, n):\n"
            "        out[0] += x[i] * y[i]\n"
        ),
        "i",
    )

    n = 8
    results, errors = [None] * n, []
    obs.reset("par.")
    try:

        def worker(i):
            try:
                rng = np.random.default_rng(i)
                x = rng.uniform(-1, 1, 501).astype(np.float32)
                y = rng.uniform(-1, 1, 501).astype(np.float32)
                with ServiceClient(service.address()) as c:
                    sched = c.schedule(proc=BLUR, schedule=BLUR_SCHED)
                    outs = []
                    for t in (1, 2):
                        out = np.zeros(1, np.float32)
                        run_proc(dotp, 501, x, y, out, backend="compiled", threads=t)
                        outs.append(out[0])
                # reductions are bit-identical across thread counts even
                # while the service's workers contend for the pool
                assert outs[0] == outs[1], outs
                results[i] = sched["state_hash"]
            except Exception as exc:  # noqa: BLE001
                errors.append((i, exc))

        threads = [_threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert all(r is not None for r in results), "lost replies"
        assert len(set(results)) == 1, "clients saw divergent schedules"
        with ServiceClient(service.address()) as c:
            stats = c.stats()
        assert stats["requests"]["schedule"] == n
        assert stats["errors"] == 0
        assert obs.count("par.par_loops") == n * 2  # two thread settings per client
    finally:
        try:
            with ServiceClient(service.address(), timeout_s=5) as c:
                c.shutdown()
        except OSError:
            pass
        server_thread.join(timeout=10)
