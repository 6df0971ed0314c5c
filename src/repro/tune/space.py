"""Knob search spaces and candidate samplers.

A :class:`Space` names the knobs an autotuner is allowed to move and the
domain of each one: an explicit list of choices (:meth:`Param.choices`) or an
arithmetic/geometric range (:meth:`Param.range`, :meth:`Param.pow2`).  The
space deliberately knows nothing about schedules — it is a pure description
of a finite grid of knob environments, and the samplers below turn it into a
concrete candidate list:

* :class:`GridSampler` — exhaustive enumeration in declaration order,
* :class:`RandomSampler` — ``n`` distinct points (a fixed seed makes the
  sample reproducible),
* :func:`successive_halving` — a budgeted search that evaluates every
  candidate cheaply, keeps the best ``1/eta`` fraction, and re-evaluates the
  survivors at ``eta``-times the budget until one remains.

An *empty* space is legal and denotes the single all-defaults candidate
``{}`` — tuning an un-knobbed schedule degenerates to measuring it once.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExoError

__all__ = [
    "TuneError",
    "Param",
    "Space",
    "GridSampler",
    "RandomSampler",
    "successive_halving",
    "threads_param",
    "THREADS_KNOB",
]

#: Reserved knob name: the schedule runner pops it from a candidate config
#: and forwards it to ``run_proc(threads=...)`` instead of the schedule.
THREADS_KNOB = "num_threads"

#: A concrete knob environment, as accepted by ``Schedule.apply(knobs=...)``.
Config = Dict[str, object]


class TuneError(ExoError):
    """The autotuner was asked something unsatisfiable (malformed space,
    no evaluable candidates, broken leaderboard file)."""


class Param:
    """One knob's searchable domain: a named, finite, ordered set of values.

    >>> Param("vec", (4, 8, 16)).values
    (4, 8, 16)
    >>> Param.range("interleave", 1, 5)           # arithmetic, like range()
    Param('interleave', values=(1, 2, 3, 4))
    >>> Param.pow2("tile", 16, 64)                # geometric, inclusive
    Param('tile', values=(16, 32, 64))
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: Iterable):
        if not isinstance(name, str) or not name:
            raise TuneError("Param: name must be a non-empty string")
        vals = tuple(values)
        if not vals:
            raise TuneError(f"Param {name!r}: the value domain is empty")
        if len(set(map(repr, vals))) != len(vals):
            raise TuneError(f"Param {name!r}: duplicate values in {list(vals)}")
        self.name = name
        self.values = vals

    @classmethod
    def range(cls, name: str, lo: int, hi: int, step: int = 1) -> "Param":
        """An arithmetic range ``lo, lo+step, ... < hi`` (``range`` semantics)."""
        return cls(name, range(lo, hi, step))

    @classmethod
    def pow2(cls, name: str, lo: int, hi: int) -> "Param":
        """The powers of two (times ``lo``) from ``lo`` up to ``hi`` inclusive."""
        if lo <= 0 or hi < lo:
            raise TuneError(f"Param {name!r}: pow2 needs 0 < lo <= hi")
        vals = []
        v = lo
        while v <= hi:
            vals.append(v)
            v *= 2
        return cls(name, vals)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, values={self.values!r})"


class Space:
    """A finite knob search space: the cartesian product of its params.

    Construct from :class:`Param` objects or a ``name -> values`` mapping:

    >>> sp = Space(Param("vec", (8, 16)), Param("tile", (32, 64)))
    >>> sp.size()
    4
    >>> Space({"vec": (8, 16)}).names()
    ['vec']
    >>> Space().size()                    # empty: one all-defaults candidate
    1
    """

    def __init__(self, *params, **named_values):
        self.params: Dict[str, Param] = {}
        flat: List[Param] = []
        for p in params:
            if isinstance(p, Param):
                flat.append(p)
            elif isinstance(p, dict):
                flat.extend(Param(k, v) for k, v in p.items())
            else:
                raise TuneError(f"Space: expected Param or dict, got {type(p).__name__}")
        flat.extend(Param(k, v) for k, v in named_values.items())
        for p in flat:
            if p.name in self.params:
                raise TuneError(f"Space: duplicate param {p.name!r}")
            self.params[p.name] = p

    def names(self) -> List[str]:
        return list(self.params)

    def size(self) -> int:
        n = 1
        for p in self.params.values():
            n *= len(p)
        return n

    def point(self, index: int) -> Config:
        """The ``index``-th grid point, in :class:`GridSampler` order."""
        if not 0 <= index < self.size():
            raise TuneError(f"Space.point: index {index} out of range [0, {self.size()})")
        cfg: Config = {}
        for p in reversed(list(self.params.values())):
            index, off = divmod(index, len(p))
            cfg[p.name] = p.values[off]
        return {name: cfg[name] for name in self.params}

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __len__(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.name}={list(p.values)!r}" for p in self.params.values())
        return f"Space({inner})"


def threads_param(lo: int = 1, hi: int = 8) -> Param:
    """The execution thread-count knob, power-of-two stepped.

    ``num_threads`` is *reserved*: it is not a schedule knob — the runner
    strips it from the candidate config and passes it to
    ``run_proc(threads=...)``, so ``Space(..., threads_param())`` sweeps
    thread counts for any schedule containing ``parallelize_loop`` steps.

    >>> threads_param(1, 8)
    Param('num_threads', values=(1, 2, 4, 8))
    """
    return Param.pow2(THREADS_KNOB, lo, hi)


class GridSampler:
    """Exhaustive enumeration of a space, first param varying slowest.

    >>> list(GridSampler().sample(Space({"a": (1, 2), "b": ("x", "y")})))
    [{'a': 1, 'b': 'x'}, {'a': 1, 'b': 'y'}, {'a': 2, 'b': 'x'}, {'a': 2, 'b': 'y'}]
    """

    def sample(self, space: Space) -> Iterator[Config]:
        names = space.names()
        for combo in itertools.product(*(space.params[n].values for n in names)):
            yield dict(zip(names, combo))


class RandomSampler:
    """``n`` distinct grid points, reproducible under a fixed ``seed``.

    When ``n`` covers the whole space this degenerates to the grid.

    >>> s = RandomSampler(n=3, seed=7)
    >>> pts = list(s.sample(Space({"a": range(10), "b": range(10)})))
    >>> len(pts) == 3 and pts == list(RandomSampler(n=3, seed=7).sample(Space({"a": range(10), "b": range(10)})))
    True
    """

    def __init__(self, n: int, seed: int = 0):
        if n <= 0:
            raise TuneError("RandomSampler: n must be positive")
        self.n = n
        self.seed = seed

    def sample(self, space: Space) -> Iterator[Config]:
        total = space.size()
        if self.n >= total:
            yield from GridSampler().sample(space)
            return
        rng = _random.Random(self.seed)
        for index in rng.sample(range(total), self.n):
            yield space.point(index)


def successive_halving(
    candidates: Sequence[Config],
    evaluate: Callable[[List[Config], int], List[float]],
    *,
    eta: int = 2,
    min_budget: int = 1,
    max_budget: int = 8,
) -> Tuple[Config, List[dict]]:
    """Budgeted search: score every candidate at ``min_budget``, keep the best
    ``1/eta`` fraction, multiply the budget by ``eta``, repeat.

    ``evaluate(configs, budget)`` returns one score per config (lower is
    better; ``float('inf')`` marks a failed candidate, which is pruned).  The
    *budget* is interpreted by the caller — the schedule runner uses it as the
    timing-repeat count, so early rounds are cheap and only survivors get
    high-confidence measurements.  Returns the winning config and the
    per-round history ``[{"budget": b, "scored": [(score, config), ...]}]``.

    >>> table = {(1,): 3.0, (2,): 2.0, (3,): 1.0, (4,): float("inf")}
    >>> best, rounds = successive_halving(
    ...     [{"x": x} for x in (1, 2, 3, 4)],
    ...     lambda cfgs, b: [table[(c["x"],)] for c in cfgs],
    ... )
    >>> best
    {'x': 3}
    >>> [r["budget"] for r in rounds]     # three survive round one, one is kept
    [1, 2]
    """
    pool = [dict(c) for c in candidates]
    if not pool:
        raise TuneError("successive_halving: no candidates")
    if eta < 2:
        raise TuneError("successive_halving: eta must be >= 2")
    budget = min_budget
    rounds: List[dict] = []
    while True:
        scores = list(evaluate(pool, budget))
        if len(scores) != len(pool):
            raise TuneError(
                f"successive_halving: evaluate returned {len(scores)} scores for {len(pool)} configs"
            )
        scored = sorted(zip(scores, pool), key=lambda sc: sc[0])
        rounds.append({"budget": budget, "scored": [(s, dict(c)) for s, c in scored]})
        alive = [(s, c) for s, c in scored if s != float("inf")]
        if not alive:
            raise TuneError("successive_halving: every candidate failed to evaluate")
        if len(alive) == 1 or budget >= max_budget:
            return alive[0][1], rounds
        keep = max(1, len(alive) // eta)
        pool = [c for _, c in alive[:keep]]
        budget = min(budget * eta, max_budget)
