"""Names exported for use inside object-code definitions.

Object code is written as decorated Python functions.  Python evaluates
parameter annotations at definition time unless the defining module uses
``from __future__ import annotations``; to make object code work in either
mode, this module provides placeholder objects for the object-language type
and loop keywords (``size``, ``f32``, ``seq``, …).  The front-end never calls
these placeholders — it parses the *source text* — they only exist so the
surrounding Python module loads cleanly.
"""

from __future__ import annotations

from .ir.memories import DRAM, DRAM_STACK, DRAM_STATIC  # re-exported for convenience

__all__ = [
    "size",
    "index",
    "f16",
    "f32",
    "f64",
    "i8",
    "i16",
    "i32",
    "seq",
    "par",
    "stride",
    "DRAM",
    "DRAM_STACK",
    "DRAM_STATIC",
]


class _TypePlaceholder:
    """Placeholder that tolerates subscripting and ``@ memory`` annotation."""

    def __init__(self, name: str):
        self._name = name

    def __getitem__(self, _item):
        return self

    def __matmul__(self, _other):
        return self

    def __repr__(self):
        return self._name


size = _TypePlaceholder("size")
index = _TypePlaceholder("index")
f16 = _TypePlaceholder("f16")
f32 = _TypePlaceholder("f32")
f64 = _TypePlaceholder("f64")
i8 = _TypePlaceholder("i8")
i16 = _TypePlaceholder("i16")
i32 = _TypePlaceholder("i32")


def seq(lo, hi):
    """Sequential loop range marker (``for i in seq(0, n)``)."""
    return range(lo, hi)


def par(lo, hi):
    """Parallel loop range marker."""
    return range(lo, hi)


def stride(_buf, _dim):
    """Stride inspection marker (``stride(A, 0)``)."""
    return 1
