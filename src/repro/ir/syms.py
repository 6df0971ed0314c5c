"""Symbols for the object language.

Every variable in the object IR (procedure arguments, loop iterators, buffer
names, …) is represented by a :class:`Sym`.  Symbols carry a human-readable
name plus a globally unique id, so that two distinct variables that happen to
share a name (e.g. after inlining or unrolling) never collide.

Equality is *identity* equality: two ``Sym`` objects are the same variable only
if they are the same object.  User-facing lookups (``find_loop('i')``) match on
the ``name`` attribute.
"""

from __future__ import annotations

import itertools

__all__ = ["Sym"]


class Sym:
    """A unique program symbol with a human-readable name."""

    __slots__ = ("name", "_id")

    _fresh_counter = itertools.count(1)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("Sym name must be a non-empty string")
        self.name = name
        self._id = next(Sym._fresh_counter)

    def copy(self) -> "Sym":
        """Return a fresh symbol with the same name but a new identity."""
        return Sym(self.name)

    def __repr__(self) -> str:
        return f"Sym({self.name}#{self._id})"

    def __str__(self) -> str:
        return self.name

    # Identity equality / hashing are inherited from ``object`` on purpose.
