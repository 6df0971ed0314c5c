"""Knob search spaces.

A :class:`Space` names the knobs an autotuner is allowed to move and the
domain of each one: an explicit tuple of values (:class:`Param`) or an
arithmetic/geometric range (:meth:`Param.range`, :meth:`Param.pow2`).  The
space deliberately knows nothing about schedules — it is a pure description
of a finite grid of knob environments, which :meth:`Space.grid` enumerates.

An *empty* space is legal and denotes the single all-defaults candidate
``{}`` — tuning an un-knobbed schedule degenerates to measuring it once.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List

from ..errors import ExoError

__all__ = [
    "TuneError",
    "Param",
    "Space",
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

    def grid(self) -> List[Config]:
        """Every point of the space, first param varying slowest.

        >>> Space({"a": (1, 2), "b": ("x", "y")}).grid()
        [{'a': 1, 'b': 'x'}, {'a': 1, 'b': 'y'}, {'a': 2, 'b': 'x'}, {'a': 2, 'b': 'y'}]
        """
        names = self.names()
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.params[n].values for n in names))
        ]

    def __contains__(self, name: str) -> bool:
        return name in self.params

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
