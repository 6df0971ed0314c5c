"""The knob-space autotuner: search a :class:`Space` over a first-class
:class:`~repro.api.schedule.Schedule` and keep the fastest configuration.

This is where schedules-as-values pay off beyond replay: because a schedule
is one value with named knobs, the tuner can enumerate knob environments,
apply them through the shared replay cache (prefix applications and
re-evaluations hit), compile each candidate on the NumPy engine, time it, and
persist a leaderboard so the next tune of the same ``(procedure, schedule,
machine)`` warm-starts from the best known config::

    from repro.tune import Space, Tuner
    from repro.halide import make_blur, blur_schedule, blur_space

    result = Tuner(make_blur(), blur_schedule(), blur_space(),
                   size_env={"H": 64, "W": 512}).tune(search="grid")
    result.best_config          # e.g. {'tile_y': 32, 'tile_x': 256, 'vec': 16}
    fast = blur_schedule().apply(make_blur(), result.best_config)

Search strategies: ``"grid"`` (exhaustive), ``"random"`` (n distinct points),
``"halving"`` (successive halving — cheap low-repeat screening, survivors
re-timed at growing budgets).  The hand-picked defaults of the schedule are
always injected as a candidate, so the tuned result can never lose to them on
the same measurement protocol.

Resumable tuning (ISSUE 8): pass ``checkpoint="path"`` and every completed
measurement is journaled (append-only, per-line checksummed —
:class:`repro.persist.Journal`) the moment it finishes.  A tuner killed
mid-run — ``kill -9`` included — restarts with the same checkpoint path and
re-measures **only the unfinished configs**: journaled measurements are
folded back in (and into the leaderboard) without re-running, the poison
list still applies, and at worst the single measurement that was mid-append
when the process died is repeated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api.cache import ReplayCache
from ..api.schedule import Schedule
from ..core.procedure import Procedure
from ..interp import resolve_num_threads
from ..persist import Journal, machine_id
from .results import Leaderboard, board_key, config_key
from .runner import Measurement, ScheduleRunner
from .space import THREADS_KNOB, Config, GridSampler, RandomSampler, Space, TuneError, successive_halving

__all__ = ["TuneResult", "Tuner", "autotune"]


class TuneResult:
    """What a tune run found.

    ``best_config`` is the *full* knob environment (defaults merged with the
    winning sweep point); ``default`` is the measurement of the schedule's
    hand-picked defaults, so ``result.speedup_vs_default()`` reports what the
    search bought.  ``measurements`` covers every candidate this run
    *evaluated*, ``resumed`` the measurements restored from the checkpoint
    journal without re-running, ``skipped`` the candidates the leaderboard
    poison list excluded without re-measuring (they crashed or timed out in
    an earlier run), and ``cache_stats`` the replay-cache traffic of the
    sweep.
    """

    def __init__(
        self,
        best: Measurement,
        default: Measurement,
        measurements: List[Measurement],
        *,
        key: str,
        machine: str,
        rounds: Optional[List[dict]] = None,
        cache_stats: Optional[dict] = None,
        skipped: Optional[List[Config]] = None,
        resumed: Optional[List[Measurement]] = None,
    ):
        self.best = best
        self.default = default
        self.measurements = measurements
        self.key = key
        self.machine = machine
        self.rounds = rounds or []
        self.cache_stats = cache_stats or {}
        self.skipped = skipped or []
        self.resumed = resumed or []

    @property
    def best_config(self) -> Config:
        return dict(self.best.config)

    @property
    def best_time_s(self) -> Optional[float]:
        return self.best.time_s

    def speedup_vs_default(self) -> float:
        """How much faster the tuned config is than the hand-picked defaults
        (>= 1.0 whenever both measured, because the defaults are a candidate)."""
        if not (self.best.ok and self.default.ok):
            return float("nan")
        return self.default.time_s / self.best.time_s

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "machine": self.machine,
            "best": self.best.to_dict(),
            "default": self.default.to_dict(),
            "speedup_vs_default": self.speedup_vs_default(),
            "evaluated": len(self.measurements),
            "errors": sum(1 for m in self.measurements if not m.ok),
            "skipped": len(self.skipped),
            "resumed": len(self.resumed),
            "cache": self.cache_stats,
        }

    def __repr__(self) -> str:
        t = f"{self.best.time_s * 1e3:.3f} ms" if self.best.ok else "?"
        return f"<TuneResult best={self.best_config} ({t}), {len(self.measurements)} evaluated>"


class Tuner:
    """Drives a search over one ``(procedure, schedule, space)`` triple.

    The space's param names must be knobs the schedule declares, or the
    reserved ``num_threads`` (checked up front, with the schedule's own
    did-you-mean diagnostics); values outside
    a knob's declared ``choices`` surface as :class:`KnobError` mid-sweep
    rather than scoring as failures.

    Hardening: ``timeout_s`` bounds each candidate's compile+time wall clock
    (a slow corner scores ``"timeout"`` instead of stalling the sweep), and
    warm-started re-tunes skip configs the leaderboard has poison-listed
    after a crash or timeout — see :data:`repro.tune.POISONED_STATUSES`.

    ``checkpoint`` names a :class:`~repro.persist.Journal` file: every
    completed measurement is appended durably, and a restarted tune with the
    same checkpoint re-measures only the configs the journal does not
    already cover (see the module docstring).
    """

    def __init__(
        self,
        proc: Procedure,
        schedule: Schedule,
        space: Space,
        size_env: Dict[str, int],
        *,
        repeats: int = 3,
        seed: int = 0,
        cache: Optional[ReplayCache] = None,
        leaderboard: Optional[Leaderboard] = None,
        backend: Optional[str] = None,
        timeout_s: Optional[float] = None,
        checkpoint: Optional[str] = None,
    ):
        if not isinstance(space, Space):
            raise TuneError(f"Tuner: expected a Space, got {type(space).__name__}")
        # the reserved thread knob is the runner's, not the schedule's
        schedule.check_knobs([k for k in space.names() if k != THREADS_KNOB])
        self.proc = proc
        self.schedule = schedule
        self.space = space
        self.leaderboard = leaderboard if leaderboard is not None else Leaderboard()
        self.machine = machine_id()
        self.key = board_key(proc, schedule, self.machine)
        self.checkpoint = Journal(checkpoint) if checkpoint is not None else None
        self.runner = ScheduleRunner(
            proc,
            schedule,
            size_env,
            repeats=repeats,
            seed=seed,
            cache=cache,
            swept=space.names(),
            backend=backend,
            timeout_s=timeout_s,
        )

    # -- candidate generation ----------------------------------------------------

    def _full(self, config: Config) -> Config:
        """Merge a sweep point over the schedule's knob defaults, so every
        candidate (and the leaderboard) carries the complete environment —
        with the thread count the defaults run at, when the space sweeps it."""
        full = dict(self.schedule.knob_defaults())
        if THREADS_KNOB in self.space:
            full[THREADS_KNOB] = resolve_num_threads()
        full.update(config)
        return full

    def candidates(
        self, search: str = "grid", n: Optional[int] = None, seed: Optional[int] = None
    ) -> List[Config]:
        """The deduplicated candidate list: the schedule's defaults, the
        persisted leaderboard champion (warm start), then the sampled space."""
        if search in ("grid", "halving"):
            sampled = list(GridSampler().sample(self.space))
        elif search == "random":
            sampled = list(
                RandomSampler(n or max(1, self.space.size() // 2), seed=seed or 0).sample(
                    self.space
                )
            )
        else:
            raise TuneError(f"unknown search strategy {search!r}; try grid, random, or halving")
        pool = [self._full({})]  # the hand-picked defaults always compete
        warm = self.leaderboard.best(self.key)
        if warm is not None and warm.get("config"):
            pool.append(self._full(warm["config"]))
        pool.extend(self._full(c) for c in sampled)
        return list({config_key(c): c for c in pool}.values())

    # -- the search --------------------------------------------------------------

    def tune(
        self, search: str = "grid", *, n: Optional[int] = None, seed: Optional[int] = None
    ) -> TuneResult:
        """Run the search and return a :class:`TuneResult`."""
        configs = self.candidates(search, n=n, seed=seed)
        # resume: configs the checkpoint journal already covers are restored,
        # not re-measured — a SIGKILLed tune pays only for unfinished work
        resumed = self._resume(configs)
        if resumed:
            done = {config_key(m.config) for m in resumed}
            configs = [c for c in configs if config_key(c) not in done]
            self.leaderboard.record_many(self.key, resumed)
        # warm-start poison list: configs whose last outcome crashed or
        # wedged a worker are excluded outright — one bad knob corner is
        # paid for once per machine, not once per tune
        poisoned = self.leaderboard.poisoned(self.key)
        skipped = [c for c in configs if config_key(c) in poisoned]
        configs = [c for c in configs if config_key(c) not in poisoned]
        if not configs and not resumed:
            raise TuneError(
                "every candidate is poison-listed (crashed or timed out in a "
                f"previous run); {len(skipped)} config(s) skipped — clear the "
                "leaderboard to force re-measurement"
            )
        rounds: List[dict] = []
        measurements: List[Measurement] = []
        if search == "halving" and len(configs) > 1:

            def eval_round(cfgs: List[Config], budget: int) -> List[float]:
                ms = self._evaluate(cfgs, repeats=budget)
                measurements.extend(ms)
                self.leaderboard.record_many(self.key, ms)
                return [m.score for m in ms]

            _, rounds = successive_halving(
                configs, eval_round, max_budget=max(1, self.runner.repeats)
            )
        elif configs:
            measurements = self._evaluate(configs, repeats=None)
            self.leaderboard.record_many(self.key, measurements)
        self.leaderboard.save()

        pool = measurements + resumed
        ok = [m for m in pool if m.ok]
        if not ok:
            raise TuneError(
                "tuning produced no successful measurement; every candidate failed "
                f"({pool[0].error if pool else 'empty space'})"
            )
        best = min(ok, key=lambda m: m.time_s)
        # the defaults are the first candidate, so they were measured here or
        # resumed (several times at different budgets under halving: report
        # their own best, so `best` and `default` come from one pool) — or
        # poison-listed by an earlier run, which is reported, never re-run
        default_cfg = self._full({})
        default_runs = [m for m in pool if m.config == default_cfg]
        if default_runs:
            default = min(default_runs, key=lambda m: (not m.ok, m.score))
        else:
            default = Measurement(
                default_cfg,
                status="crash",
                error="poison-listed by the leaderboard (crashed or timed out "
                "in a previous run); not re-measured",
            )
        return TuneResult(
            best,
            default,
            measurements,
            key=self.key,
            machine=self.machine,
            rounds=rounds,
            cache_stats=self.runner.cache.stats(),
            skipped=skipped,
            resumed=resumed,
        )

    # -- checkpointing -----------------------------------------------------------

    def _journal(self, measurement: Measurement) -> None:
        """Durably append one completed measurement to the checkpoint (the
        persist sites inside :meth:`Journal.append` honour the
        ``partial-write``/``kill-mid-publish`` faults, which is how the kill
        harness interrupts a tune at a chosen point)."""
        if self.checkpoint is not None:
            self.checkpoint.append({"key": self.key, "measurement": measurement.to_dict()})

    def _resume(self, configs: Sequence[Config]) -> List[Measurement]:
        """The journaled measurements covering ``configs`` (this board key
        only; a checkpoint shared across specs never cross-pollutes).  A
        config journaled several times — halving budgets, or a re-tune — is
        folded by the leaderboard's own rule (:meth:`Leaderboard.record`)."""
        if self.checkpoint is None:
            return []
        board = Leaderboard()
        for rec in self.checkpoint.entries():
            if not isinstance(rec, dict) or rec.get("key") != self.key:
                continue
            try:
                board.record(self.key, Measurement.from_dict(rec["measurement"]))
            except (KeyError, TypeError):
                continue
        done = {config_key(e["config"]): e for e in board.entries(self.key)}
        return [
            Measurement.from_dict(done[config_key(c)]) for c in configs if config_key(c) in done
        ]

    def _evaluate(self, configs: Sequence[Config], *, repeats: Optional[int]) -> List[Measurement]:
        out: List[Measurement] = []
        for config in configs:
            m = self.runner.evaluate(config, repeats=repeats)
            self._journal(m)  # the moment it completes, not at sweep end
            out.append(m)
        return out


def autotune(
    proc: Procedure,
    schedule: Schedule,
    space: Space,
    size_env: Dict[str, int],
    *,
    search: str = "grid",
    leaderboard: Optional[Leaderboard] = None,
    **kwargs,
) -> TuneResult:
    """One-call tuning: build a :class:`Tuner` and run it.

    Keyword arguments split between the two: ``repeats``/``seed``/``cache``
    configure measurement, everything else is forwarded to :meth:`Tuner.tune`.
    """
    init_keys = {"repeats", "seed", "cache", "backend", "timeout_s", "checkpoint"}
    init = {k: v for k, v in kwargs.items() if k in init_keys}
    rest = {k: v for k, v in kwargs.items() if k not in init_keys}
    return Tuner(proc, schedule, space, size_env, leaderboard=leaderboard, **init).tune(
        search, **rest
    )
