"""The frontend parses from many threads at once (the schedule service's
thread pool does): CPython 3.11's ``ast`` is not thread-safe, so every
``ast.parse`` of the frontend is serialised behind one lock.

The failure needs a thread switch *inside* ``ast.parse``, which happens when
a garbage collection there runs a Python finalizer — so the workers make
cyclic garbage with ``__del__`` and the collector is set to run often.
Without the lock this test dies with ``SystemError: AST constructor
recursion depth mismatch`` within a few dozen parses."""
from __future__ import annotations

import gc
import sys
import threading

from repro import proc_from_source
from repro.frontend.pattern import parse_pattern
from repro.ir.build import structurally_equal

THREADS = 8
ROUNDS = 60


class _Cycle:
    """Garbage only the cycle collector frees, with a finalizer long enough
    to reach a GIL hand-over."""

    def __init__(self):
        self.me = self

    def __del__(self):
        for _ in range(20):
            pass


def _source(i: int) -> str:
    # distinct text per call, so no parse is answered from a memo
    return (
        f"def k{i}(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        f"    assert n % 8 == 0\n"
        f"    for i in seq(0, n):\n"
        f"        for j in seq(0, 8):\n"
        f"            y[i] += ({i}.0 + x[i]) * (x[i] - (y[i] + {i}.0 * x[i]))\n"
    )


def test_concurrent_parses_of_sources_and_patterns():
    want = proc_from_source(_source(0))
    errors, done = [], []
    barrier = threading.Barrier(THREADS)

    def worker(t: int) -> None:
        try:
            barrier.wait(timeout=30)
            for r in range(ROUNDS):
                i = t * ROUNDS + r
                [_Cycle() for _ in range(30)]
                p = proc_from_source(_source(i))
                assert p.name() == f"k{i}"
                # a fresh pattern string each round: parse_pattern is memoised
                kind, _, occ = parse_pattern(f"y[_] += _ #{i}")
                assert (kind, occ) == ("stmts", i)
                assert len(p.find_all("x[_]")) == 3
            done.append(t)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    old_interval, old_threshold = sys.getswitchinterval(), gc.get_threshold()
    sys.setswitchinterval(1e-6)
    gc.set_threshold(50, 2, 2)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
        gc.set_threshold(*old_threshold)
    assert not errors, errors[:3]
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == list(range(THREADS))
    # the serialised parser still parses: same tree as a single-threaded parse
    again = proc_from_source(_source(0))
    assert structurally_equal(want._root, again._root, match_sym_names=True)
