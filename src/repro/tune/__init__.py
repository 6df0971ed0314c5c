"""repro.tune — a knob-space autotuner over first-class schedules.

The subsystem that makes :mod:`repro.api` schedules *searchable*: a
:class:`Space` describes per-knob choices/ranges and enumerates its grid,
:func:`full_config` completes each grid point to the knob environment a
candidate is measured and recorded under, a :class:`ScheduleRunner` applies
each one through the shared replay cache and times it (in the quarantine
guard's disposable child, under its watchdog, through
:func:`evaluate_isolated`), and a persisted
:class:`Leaderboard` keyed on ``(proc digest, schedule fingerprint,
machine)`` warm-starts the next tune — across process restarts.

    from repro.tune import Tuner
    from repro.blas import LEVEL1_KERNELS, level1_schedule, level1_space

    result = Tuner(LEVEL1_KERNELS["saxpy"], level1_schedule(),
                   level1_space(), size_env={"n": 65536}).tune()
    result.best_config, result.speedup_vs_default()

See ``docs/autotuning.md`` for the full guide.
"""

from .results import POISONED_STATUSES, Leaderboard, board_key, config_key
from .runner import (
    Measurement,
    ScheduleRunner,
    evaluate_isolated,
    evaluate_spec,
    full_config,
    split_prefix,
)
from .space import THREADS_KNOB, Param, Space, TuneError, threads_param
from .tuner import Tuner, TuneResult

__all__ = [
    "TuneError",
    "Param",
    "Space",
    "threads_param",
    "THREADS_KNOB",
    "Measurement",
    "ScheduleRunner",
    "full_config",
    "split_prefix",
    "evaluate_spec",
    "evaluate_isolated",
    "Leaderboard",
    "board_key",
    "config_key",
    "POISONED_STATUSES",
    "Tuner",
    "TuneResult",
]
