"""Multicore execution support for ``par`` loops.

``parallelize_loop`` stamps ``For.pragma = "par"`` only after
``loop_iterations_commute`` proves distinct iterations carry no dependence.
This module is the runtime half of honouring that annotation in the compiled
NumPy engine: the lowerer (:mod:`repro.interp.compile`) wraps a ``par`` loop's
body into a chunk function ``body(lo, hi, *private_buffers)`` and calls
:func:`par_for` here, which partitions the iteration space and dispatches the
chunks over a shared :class:`~concurrent.futures.ThreadPoolExecutor` (NumPy
releases the GIL inside its C loops, so chunks genuinely overlap).

Thread-count resolution
-----------------------
:func:`resolve_num_threads`: an explicit ``run_proc(threads=...)`` argument
wins, then the ``REPRO_NUM_THREADS`` environment variable, then
``os.cpu_count()`` (capped at :data:`MAX_THREADS`).  ``run_proc`` resolves
the count once per call and passes it to the compiled procedure, whose
generated ``__kernel(__ctx, __nt, ...)`` hands it to each :func:`par_for`
dispatch and each compiled callee.  It is no part of the compiled-code cache
key: one executable serves every thread setting.

Determinism
-----------
* **Maps** (no cross-iteration accumulation): iterations write disjoint
  elements, so results are bit-identical to the sequential run for every
  thread count.  The chunk count may track the thread count (``threads == 1``
  runs one full-range chunk — exactly the sequential code).
* **Reductions** (privatized buffers / scalars): each chunk accumulates into
  a private zeroed copy and the partial results are combined *in chunk index
  order* on the calling thread.  The partition is therefore **fixed** at
  :data:`PAR_CHUNKS` chunks independent of the thread count, which makes the
  combined result bit-identical across ``threads ∈ {1, 2, 8, ...}`` (only
  *which worker* runs a chunk varies — never the chunk boundaries or the
  combine order).

Nested parallelism
------------------
A chunk body may call other compiled procedures that contain ``par`` loops of
their own.  Dispatching those onto the same pool from inside a worker would
deadlock it under oversubscription, so :func:`par_for` keeps a thread-local
nesting depth and runs nested dispatches serially on the worker thread.

Fault sites
-----------
``thread-pool-exhausted`` (:mod:`repro.guard.faults`) fires at the executor
acquisition: the dispatch degrades to running the chunks serially on the
calling thread — same partition, same combine order, same results — and
records a ``par->serial`` :class:`~repro.guard.events.FallbackEvent`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import config, obs
from ..errors import ExoError

__all__ = [
    "MAX_THREADS",
    "PAR_CHUNKS",
    "par_for",
    "resolve_num_threads",
]

#: hard ceiling on the worker count (oversubscription past this only adds
#: scheduler churn; the chunk partition never exceeds PAR_CHUNKS anyway)
MAX_THREADS = 16

#: fixed chunk count for loops with privatized reductions — independent of
#: the thread count so the ordered combine is bit-identical across settings
PAR_CHUNKS = 16


class ThreadCountError(ExoError):
    """An invalid ``threads=`` argument."""


def resolve_num_threads(threads: Optional[int] = None) -> int:
    """Resolve the effective worker count for ``par`` loop dispatch.

    Precedence: explicit ``threads`` argument, then ``REPRO_NUM_THREADS``,
    then ``os.cpu_count()``.  The result is clamped to
    ``[1, MAX_THREADS]``; an invalid argument raises
    :class:`ThreadCountError` and an invalid variable
    :class:`~repro.config.ConfigError` (a typo'd environment must not
    silently serialize a benchmark).
    """
    if threads is None:
        return min(config.num_threads() or os.cpu_count() or 1, MAX_THREADS)
    if threads.__class__ is int and 0 < threads <= MAX_THREADS:
        return threads  # the common case, on every run_proc call
    try:
        n = int(threads)
    except (TypeError, ValueError):
        raise ThreadCountError(f"threads= must be a positive integer, got {threads!r}") from None
    if n < 1:
        raise ThreadCountError(f"threads= must be >= 1, got {n}")
    return min(n, MAX_THREADS)


# ---------------------------------------------------------------------------
# The shared executor
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_workers = 0

# nesting depth per thread: >0 means we are already inside a chunk worker
_tls = threading.local()


def _get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared executor, grown (never shrunk) to at least ``workers``."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            old = _pool
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-par"
            )
            _pool_workers = workers
            if old is not None:
                old.shutdown(wait=False)
        return _pool


# ---------------------------------------------------------------------------
# Telemetry (the ``par.*`` counters of repro.obs)
# ---------------------------------------------------------------------------

obs.declare("par.par_loops", "par.chunks", "par.threads_max", "par.serial_degrades")


def _record(chunks: int, threads_used: int, degraded: bool) -> None:
    obs.add("par.par_loops")  # par_for dispatches executed
    obs.add("par.chunks", chunks)  # chunk bodies executed (serial or threaded)
    obs.peak("par.threads_max", threads_used)  # widest concurrency any dispatch used
    if degraded:
        obs.add("par.serial_degrades")  # dispatches forced serial (fault / nesting)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _chunk_bounds(lo: int, hi: int, nchunks: int) -> List[Tuple[int, int]]:
    n = hi - lo
    return [(lo + (n * c) // nchunks, lo + (n * (c + 1)) // nchunks) for c in range(nchunks)]


def par_for(
    body,
    lo: int,
    hi: int,
    nthreads: int,
    priv_arrays: Sequence[np.ndarray] = (),
    name: str = "",
    fixed: bool = False,
) -> List[tuple]:
    """Run ``body(chunk_lo, chunk_hi, *private_copies)`` over ``[lo, hi)``.

    ``priv_arrays`` are the shared reduction buffers the loop body accumulates
    into: each chunk receives a zeroed private copy per buffer, and after all
    chunks complete the partials are added back into the shared buffer in
    chunk index order (deterministic).  Returns the per-chunk return values of
    ``body`` in chunk order — the generated code combines privatized *scalar*
    accumulators from them, again in order.

    ``fixed`` pins the partition at :data:`PAR_CHUNKS` chunks regardless of
    the thread count; the lowerer sets it whenever the loop carries *any*
    privatized accumulator (buffer or scalar), because the partition then
    shapes the combine and must not vary with the thread setting.

    Exceptions from chunk bodies (bounds guards, interpreter fallbacks)
    propagate to the caller; partial writes to privatized copies are discarded
    with them, shared-buffer writes are disjoint per iteration by the
    ``parallelize_loop`` safety check.
    """
    n = hi - lo
    if n <= 0:
        _record(0, 1, False)
        return []

    deterministic = fixed or bool(priv_arrays)
    serial = nthreads <= 1
    degraded = False
    if getattr(_tls, "depth", 0) > 0:
        # nested dispatch from inside a worker: run serially to keep the
        # shared pool deadlock-free under oversubscription
        degraded = not serial
        serial = True
    if not serial:
        from ..guard import faults, record_fallback

        if faults.should_fire("thread-pool-exhausted"):
            record_fallback(
                name,
                "par->serial",
                "thread-pool-exhausted",
                detail=f"no worker threads available for {n} iterations; ran serially",
            )
            serial = True
            degraded = True

    # reductions use a fixed partition so the ordered combine is identical
    # for every thread count; maps are bitwise-insensitive to the partition
    if deterministic:
        nchunks = min(n, PAR_CHUNKS)
    elif serial:
        nchunks = 1
    else:
        nchunks = min(n, 4 * nthreads)
    bounds = _chunk_bounds(lo, hi, nchunks)
    privs = [tuple(np.zeros_like(a) for a in priv_arrays) for _ in bounds]

    def run_chunk(c: int):
        depth = getattr(_tls, "depth", 0)
        _tls.depth = depth + 1
        try:
            return body(bounds[c][0], bounds[c][1], *privs[c])
        finally:
            _tls.depth = depth

    if serial or nchunks == 1:
        results = [run_chunk(c) for c in range(nchunks)]
        used = 1
    else:
        used = min(nthreads, nchunks)
        pool = _get_pool(nthreads)
        # each worker walks a contiguous span of chunks so the concurrency
        # is bounded by the *requested* thread count even when the shared
        # pool has grown wider for another caller
        spans = _chunk_bounds(0, nchunks, used)
        futures = [pool.submit(lambda s: [run_chunk(c) for c in range(*s)], sp) for sp in spans]
        results = [r for f in futures for r in f.result()]

    for k, arr in enumerate(priv_arrays):
        for c in range(nchunks):
            arr += privs[c][k]
    _record(nchunks, used, degraded)
    return results
