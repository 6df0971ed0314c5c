"""Candidate evaluation: apply the schedule, compile, time.

The runner turns one knob environment into a wall-clock measurement:

1. **apply** — the :class:`~repro.api.schedule.Schedule` is applied to the
   procedure through a shared :class:`~repro.api.cache.ReplayCache`.  For
   ``seq``-shaped schedules the runner splits off the longest prefix whose
   steps reference none of the swept knobs and applies it as its own cached
   sub-schedule, so every candidate in a sweep after the first hits the cache
   for the shared prefix instead of re-running it (re-evaluations hit for
   the full schedule).
2. **warm up** — one untimed ``run_proc`` call compiles the candidate for
   its engine (NumPy lowering, or ``cc`` / a cached artifact on ``"c"``).
3. **time** — best-of-``repeats`` wall clock of ``run_proc`` on random
   arguments of the requested sizes, with fresh argument copies per repeat
   (kernels mutate their buffers in place) and the argument setup excluded
   from the timed window.

Scheduling failures (``SchedulingError``/``InvalidCursorError``) mark the
measurement ``status="error"`` so a search can prune the candidate, but a
:class:`~repro.api.knobs.KnobError` always propagates: a mis-configured sweep
must surface, not score as a slow candidate.

Process-level isolation (:func:`evaluate_isolated`) runs one candidate in
the quarantine guard's disposable child
(:func:`repro.guard.quarantine.run_guarded`): the candidate is described by
an importable *spec* (dotted references to the procedure and schedule
factories plus JSON-able arguments), so a crashing or pathological candidate
cannot take the tuner, the service or another candidate down.  The spec's
``timeout_s`` is the guard's watchdog: it SIGKILLs the whole candidate —
resolve, schedule, ``cc`` and time, native code included — which then scores
``status="timeout"``; a candidate that kills its child outright scores
``status="crash"``.  :class:`~repro.tune.results.Leaderboard` poison-lists
crash/timeout configs so a warm-started re-tune never re-runs them.  The
service's tune requests measure through it; the in-process
:class:`ScheduleRunner` (and so the :class:`~repro.tune.Tuner`) has no time
limit.

What a candidate *is* — the complete knob environment both the
:class:`~repro.tune.Tuner` and the service measure, record and poison-list —
is :func:`full_config`'s to decide.
"""

from __future__ import annotations

import math
import os
import time
from typing import Container, Dict, Optional, Sequence

import numpy as np

from ..api.cache import ReplayCache
from ..api.knobs import KnobError
from ..api.schedule import Schedule, Seq
from ..core.procedure import Procedure
from ..errors import InvalidCursorError, SchedulingError
from ..guard import faults
from ..guard.quarantine import run_guarded
from ..interp import make_random_args, resolve_backend, resolve_num_threads, run_proc
from .space import THREADS_KNOB, Config, TuneError

__all__ = [
    "Measurement",
    "ScheduleRunner",
    "full_config",
    "split_prefix",
    "evaluate_spec",
    "evaluate_isolated",
]


class Measurement:
    """The outcome of evaluating one candidate config.

    ``status`` is ``"ok"`` (timed), ``"error"`` (the schedule or engine
    refused this config — recoverable, the search prunes it), ``"timeout"``
    (an isolated candidate outran its wall-clock limit), or ``"crash"`` (the
    candidate killed its isolated process).  ``score`` is the sort key: the
    best wall-clock seconds, or ``inf`` for failed candidates.  Crash and
    timeout outcomes are *poison-listed* by the leaderboard so warm-started
    re-tunes skip them.
    """

    __slots__ = ("config", "time_s", "repeats", "status", "error")

    def __init__(
        self,
        config: Config,
        time_s: Optional[float] = None,
        repeats: int = 0,
        status: str = "ok",
        error: Optional[str] = None,
    ):
        self.config = dict(config)
        self.time_s = time_s
        self.repeats = repeats
        self.status = status
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def score(self) -> float:
        return self.time_s if self.ok and self.time_s is not None else float("inf")

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "time_s": self.time_s,
            "repeats": self.repeats,
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Measurement":
        return cls(
            d["config"],
            time_s=d.get("time_s"),
            repeats=d.get("repeats", 0),
            status=d.get("status", "ok"),
            error=d.get("error"),
        )

    def __repr__(self) -> str:
        if self.ok:
            return f"<Measurement {self.config} {self.time_s * 1e3:.3f} ms (best of {self.repeats})>"
        return f"<Measurement {self.config} {self.status}: {self.error}>"


def full_config(schedule: Schedule, swept: Container[str], point: Config) -> Config:
    """The complete knob environment of the sweep point ``point``: the
    schedule's knob defaults, then the thread count the defaults run at
    when the sweep moves ``num_threads`` (a name in ``swept``), then the
    point itself.  Every candidate, measurement and leaderboard entry
    carries this spelling, so one config has one key on a board.

    >>> from repro.api import S, knob, seq
    >>> sched = seq(S.divide_loop("i", knob("w", 8), ["io", "ii"]),
    ...             S.divide_loop("ii", knob("v", 2), ["a", "b"]))
    >>> full_config(sched, ("w",), {"w": 4}) == {"v": 2, "w": 4}
    True
    """
    full = dict(schedule.knob_defaults())
    if THREADS_KNOB in swept:
        full[THREADS_KNOB] = resolve_num_threads()
    full.update(point)
    return full


def split_prefix(schedule: Schedule, swept: Sequence[str]):
    """Split a ``seq``-shaped schedule into ``(prefix, suffix)`` where the
    prefix is the longest leading run of steps referencing none of the
    ``swept`` knob names.  Every candidate in a sweep shares the prefix's
    output, so applying it as its own cached schedule turns N prefix runs
    into one.  Non-``Seq`` schedules (or ones whose first step already uses a
    swept knob) return ``(None, schedule)``.
    """
    swept = set(swept)
    if not isinstance(schedule, Seq) or not swept:
        return None, schedule
    cut = 0
    for step in schedule.steps:
        if {k.name for k in step.knobs()} & swept:
            break
        cut += 1
    if cut == 0 or cut == len(schedule.steps):
        return None, schedule
    return Seq(schedule.steps[:cut]), Seq(schedule.steps[cut:])


def _restrict(config: Optional[Config], schedule: Schedule) -> Config:
    """The subset of ``config`` naming knobs this (sub-)schedule declares —
    ``Schedule.apply`` rejects unknown names, which is right for user calls
    but wrong for the runner's own prefix/suffix split."""
    declared = {k.name for k in schedule.knobs()}
    return {k: v for k, v in (config or {}).items() if k in declared}


class ScheduleRunner:
    """Evaluates knob configs for one ``(procedure, schedule)`` pair.

    ``size_env`` supplies the problem sizes the timing runs at; ``repeats``
    is the best-of count; ``swept`` (usually the space's param names)
    enables the shared-prefix split described in the module docstring.
    """

    def __init__(
        self,
        proc: Procedure,
        schedule: Schedule,
        size_env: Dict[str, int],
        *,
        repeats: int = 3,
        seed: int = 0,
        cache: Optional[ReplayCache] = None,
        swept: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
    ):
        if not isinstance(proc, Procedure):
            raise TuneError(f"ScheduleRunner: expected a Procedure, got {type(proc).__name__}")
        if not isinstance(schedule, Schedule):
            raise TuneError(f"ScheduleRunner: expected a Schedule, got {type(schedule).__name__}")
        if backend is not None:
            # fail the sweep setup, not its hundredth candidate
            resolve_backend(backend, source="ScheduleRunner(backend=...)")
        self.proc = proc
        self.schedule = schedule
        self.size_env = dict(size_env)
        self.repeats = repeats
        self.seed = seed
        self.cache = cache if cache is not None else ReplayCache()
        self.prefix, self.suffix = split_prefix(schedule, swept or [])
        # which execution engine the timing runs use (None: the process
        # default); "c" times real vector code, with its warm-up run absorbing
        # the cc invocation (or a cached-artifact load)
        self.backend = backend

    # -- scheduling ------------------------------------------------------------

    def scheduled(self, config: Optional[Config] = None) -> Procedure:
        """Apply the schedule under ``config`` through the replay cache,
        sharing the swept-knob-free prefix across candidates."""
        # _restrict below silently splits the config between the prefix and
        # suffix sub-schedules, so the full schedule checks the names here
        self.schedule.check_knobs(config)
        if self.prefix is None:
            return self.schedule.apply(self.proc, _restrict(config, self.schedule), cache=self.cache)
        base = self.prefix.apply(self.proc, _restrict(config, self.prefix), cache=self.cache)
        return self.suffix.apply(base, _restrict(config, self.suffix), cache=self.cache)

    # -- timing ----------------------------------------------------------------

    def _time(self, scheduled: Procedure, threads: Optional[int] = None) -> float:
        base = make_random_args(scheduled, self.size_env, seed=self.seed)

        def fresh():
            return {
                k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()
            }

        # warm-up absorbs one-time compilation; on backend="c" the timed
        # calls then resolve the kernel by the identity of ``scheduled`` and
        # lower nothing, so they rank kernels, not the size of their C source
        run_proc(scheduled, backend=self.backend, threads=threads, **fresh())
        best = float("inf")
        for _ in range(max(1, self.repeats)):
            args = fresh()
            t0 = time.perf_counter()
            run_proc(scheduled, backend=self.backend, threads=threads, **args)
            best = min(best, time.perf_counter() - t0)
        return best

    def evaluate(self, config: Optional[Config] = None) -> Measurement:
        """Schedule and time one candidate.  Returns an ``"error"``
        measurement on scheduling failure; lets :class:`KnobError` escape.

        The reserved ``num_threads`` knob (:func:`~repro.tune.threads_param`)
        never reaches the schedule: it is stripped from the candidate config
        and forwarded to ``run_proc(threads=...)``, so spaces can sweep the
        execution thread count alongside schedule knobs.  It stays in the
        measurement's recorded config."""
        config = dict(config or {})
        threads = config.get(THREADS_KNOB)
        sched_config = {k: v for k, v in config.items() if k != THREADS_KNOB}
        try:
            scheduled = self.scheduled(sched_config)
        except KnobError:
            raise  # a sweep configuration bug, never a prunable candidate
        except (SchedulingError, InvalidCursorError) as err:
            return Measurement(config, status="error", error=str(err))
        try:
            best = self._time(scheduled, threads=threads)
        except Exception as err:  # a crashing candidate must not end the tune
            return Measurement(
                config, status="error", error=f"{type(err).__name__}: {err}"
            )
        return Measurement(config, time_s=best, repeats=self.repeats)


# ---------------------------------------------------------------------------
# Process-level isolation
# ---------------------------------------------------------------------------


def _resolve_ref(path: str, args: Sequence = (), kwargs: Optional[dict] = None):
    """Import ``"pkg.mod:attr"`` and build the referenced object: mappings are
    indexed by ``args[0]``, callables are called with ``args``/``kwargs``,
    anything else is returned as-is."""
    import importlib

    if ":" not in path:
        raise TuneError(f"spec reference {path!r} must look like 'pkg.mod:attr'")
    modname, attr = path.split(":", 1)
    obj = getattr(importlib.import_module(modname), attr)
    if isinstance(obj, dict):
        if len(args) != 1:
            raise TuneError(f"spec reference {path!r} is a mapping; pass exactly one key arg")
        return obj[args[0]]
    if callable(obj) and not isinstance(obj, Procedure):
        return obj(*args, **(kwargs or {}))
    return obj


def evaluate_spec(spec: dict) -> dict:
    """Evaluate one candidate described entirely by JSON-able data (run in a
    disposable child by :func:`evaluate_isolated`, but callable inline too).

    Spec keys: ``proc`` / ``schedule`` (dotted ``"pkg.mod:attr"`` references,
    with optional ``proc_args`` / ``schedule_args`` / ``schedule_kwargs``),
    ``config``, ``size_env``, ``repeats``, ``seed``, ``backend``, and
    ``timeout_s`` (read by :func:`evaluate_isolated` only).  Returns
    ``Measurement.to_dict()`` with a ``"knob-error"`` status reserved for
    :class:`KnobError`, so a caller across the process boundary can tell a
    mis-configured sweep from a failed candidate.
    """
    if faults.should_fire("worker-crash"):
        # stand-in for a candidate whose generated code kills its process
        # (segfault, OOM-kill): die without Python cleanup, exactly as the
        # real failure would
        os._exit(77)
    try:
        proc = _resolve_ref(spec["proc"], spec.get("proc_args", ()))
        schedule = _resolve_ref(
            spec["schedule"], spec.get("schedule_args", ()), spec.get("schedule_kwargs")
        )
        runner = ScheduleRunner(
            proc,
            schedule,
            spec.get("size_env", {}),
            repeats=spec.get("repeats", 3),
            seed=spec.get("seed", 0),
            swept=spec.get("swept"),
            backend=spec.get("backend"),
        )
        return runner.evaluate(spec.get("config")).to_dict()
    except KnobError as err:
        return {"config": spec.get("config", {}), "status": "knob-error", "error": str(err)}


def evaluate_isolated(spec: dict) -> dict:
    """:func:`evaluate_spec` in a disposable child of its own, under the
    quarantine guard's watchdog.

    ``spec["timeout_s"]`` (a positive number; absent means no limit) bounds
    the whole candidate; outrunning it scores ``"timeout"``.  A candidate
    that kills its child outright (segfault, OOM-kill, ``os._exit``) scores
    ``"crash"``: either costs its own measurement, never the caller or
    another candidate, and the leaderboard poison-lists it so a
    warm-started re-tune skips it.  An exception that escapes
    :func:`evaluate_spec` (an unresolvable reference) raises
    :class:`TuneError` with the child's message.
    """
    timeout_s = spec.get("timeout_s")
    if timeout_s is None:
        timeout_s = math.inf
    elif isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)) or not timeout_s > 0:
        raise TuneError(f"evaluate_isolated: timeout_s must be a positive number, got {timeout_s!r}")
    report = run_guarded(lambda: evaluate_spec(spec), timeout_s=timeout_s)
    if report.status == "ok":
        return report.value
    if report.status == "error":
        raise TuneError(f"evaluate_isolated: {report.error}")
    error = report.error if report.status == "timeout" else f"candidate crashed its process ({report.error})"
    return Measurement(spec.get("config") or {}, status=report.status, error=error).to_dict()
