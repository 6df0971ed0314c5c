"""repro.tune — a knob-space autotuner over first-class schedules.

The subsystem that makes :mod:`repro.api` schedules *searchable*: a
:class:`Space` describes per-knob choices/ranges, samplers and successive
halving enumerate candidates, a :class:`ScheduleRunner` applies each one
through the shared replay cache and times it on the compiled NumPy engine
(optionally in isolated worker processes), and a persisted
:class:`Leaderboard` keyed on ``(proc digest, schedule fingerprint,
machine)`` warm-starts the next tune — across process restarts.

    from repro.tune import autotune
    from repro.blas import LEVEL1_KERNELS, level1_schedule, level1_space

    result = autotune(LEVEL1_KERNELS["saxpy"], level1_schedule(),
                      level1_space(), size_env={"n": 65536})
    result.best_config, result.speedup_vs_default()

See ``docs/autotuning.md`` for the full guide.
"""

from .results import POISONED_STATUSES, Leaderboard, board_key, config_key
from .runner import Measurement, ScheduleRunner, evaluate_parallel, evaluate_spec, split_prefix
from .space import (
    THREADS_KNOB,
    GridSampler,
    Param,
    RandomSampler,
    Space,
    TuneError,
    successive_halving,
    threads_param,
)
from .tuner import Tuner, TuneResult, autotune

__all__ = [
    "TuneError",
    "Param",
    "Space",
    "GridSampler",
    "RandomSampler",
    "successive_halving",
    "threads_param",
    "THREADS_KNOB",
    "Measurement",
    "ScheduleRunner",
    "split_prefix",
    "evaluate_spec",
    "evaluate_parallel",
    "Leaderboard",
    "board_key",
    "config_key",
    "POISONED_STATUSES",
    "Tuner",
    "TuneResult",
    "autotune",
]
