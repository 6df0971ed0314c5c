"""Named schedule parameters ("knobs").

A :class:`Knob` is a placeholder value that can appear anywhere in a
:class:`~repro.api.schedule.Schedule`'s arguments —
``S.divide_loop('i', knob('tile', 8), ['io', 'ii'])`` — and is resolved to a
concrete value when the schedule is *applied*.  This is what makes a single
``Schedule`` value sweepable: the same object applied with different knob
environments yields differently-parameterised object code, which is the
substrate an autotuner searches over.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from ..errors import ExoError

__all__ = ["Knob", "KnobError", "knob", "resolve_value", "collect_knobs"]


class KnobError(ExoError):
    """A knob could not be resolved (unbound, unknown, or outside its
    choices).  Deliberately *not* a :class:`SchedulingError`: the recovery
    combinators (``try_``, ``try_op``, ``repeat``) treat scheduling failures
    as recoverable, but a knob-configuration mistake must surface, not turn
    a sweep into a silent no-op.

    >>> from repro.api import knob, KnobError
    >>> try:
    ...     knob("w", choices=(4, 8)).resolve({"w": 5})
    ... except KnobError:
    ...     print("refused")
    refused
    """


class Knob:
    """A named, defaultable schedule parameter.

    Parameters
    ----------
    name:
        The key under which a value is looked up in the knob environment
        passed to ``Schedule.apply``.
    default:
        Value used when the environment does not bind ``name``.  Without a
        default, applying the schedule without binding the knob raises
        :class:`SchedulingError`.
    choices:
        Optional whitelist of admissible values (the sweep domain an
        autotuner would enumerate); resolution validates against it.

    >>> from repro.api import knob
    >>> k = knob("tile", 32, choices=(16, 32, 64))
    >>> k.resolve({"tile": 64})
    64
    >>> k.resolve({})                       # falls back to the default
    32
    """

    __slots__ = ("name", "default", "choices")

    def __init__(self, name: str, default=None, choices: Optional[Sequence] = None):
        if not isinstance(name, str) or not name:
            raise TypeError("knob name must be a non-empty string")
        self.name = name
        self.default = default
        self.choices = tuple(choices) if choices is not None else None

    def resolve(self, env: Optional[Dict[str, object]]):
        if env is not None and self.name in env:
            val = env[self.name]
        elif self.default is not None:
            val = self.default
        else:
            raise KnobError(
                f"knob {self.name!r} has no default and no value was supplied "
                f"(pass knobs={{'{self.name}': ...}} to apply)"
            )
        if self.choices is not None and val not in self.choices:
            raise KnobError(
                f"knob {self.name!r}: value {val!r} not in choices {list(self.choices)}"
            )
        return val

    def __repr__(self) -> str:
        extra = f", default={self.default!r}" if self.default is not None else ""
        if self.choices is not None:
            extra += f", choices={list(self.choices)!r}"
        return f"knob({self.name!r}{extra})"

    # Knobs are identified by name for fingerprinting/deduplication
    def __hash__(self):
        return hash(("knob", self.name))

    def __eq__(self, other):
        return isinstance(other, Knob) and other.name == self.name


def knob(name: str, default=None, choices: Optional[Sequence] = None) -> Knob:
    """Declare a named knob (see :class:`Knob`).

    Knobs can sit anywhere in a schedule's arguments; applying the schedule
    resolves them against the supplied environment:

    >>> from repro.api import S, knob
    >>> s = S.divide_loop("i", knob("w", 8), ["io", "ii"])
    >>> sorted(k.name for k in s.knobs())
    ['w']
    >>> s.knob_defaults()
    {'w': 8}
    """
    return Knob(name, default=default, choices=choices)


def resolve_value(value, env: Optional[Dict[str, object]]):
    """Substitute every :class:`Knob` inside ``value`` (recursing through
    lists, tuples, and dicts) with its resolved concrete value.

    >>> from repro.api import knob, resolve_value
    >>> resolve_value(["i", knob("w", 8), {"tail": knob("t", "cut")}], {"w": 4})
    ['i', 4, {'tail': 'cut'}]
    """
    if isinstance(value, Knob):
        return value.resolve(env)
    if isinstance(value, list):
        return [resolve_value(v, env) for v in value]
    if isinstance(value, tuple):
        return tuple(resolve_value(v, env) for v in value)
    if isinstance(value, dict):
        return {k: resolve_value(v, env) for k, v in value.items()}
    return value


def collect_knobs(value, out: Optional[Set[Knob]] = None) -> Set[Knob]:
    """All knobs appearing (recursively) inside ``value``.

    >>> from repro.api import knob, collect_knobs
    >>> sorted(k.name for k in collect_knobs([knob("a"), {"x": (knob("b"), 1)}]))
    ['a', 'b']
    """
    if out is None:
        out = set()
    if isinstance(value, Knob):
        out.add(value)
    elif isinstance(value, (list, tuple)):
        for v in value:
            collect_knobs(v, out)
    elif isinstance(value, dict):
        for v in value.values():
            collect_knobs(v, out)
    return out
