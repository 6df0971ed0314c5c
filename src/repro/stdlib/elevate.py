"""Reproduction of ELEVATE-style scheduling (Section 6.3.1).

ELEVATE drives rewrites with *traversal strategies* and a single, one-time,
relative reference (a linear time model).  Both are reproduced here in user
code: traversals are generators over cursors (``Top = Cursor →
Stream[Cursor]``), and the linear-time reference frame is recreated with the
``nav`` / ``savec`` / ``reframe`` combinators from
:mod:`repro.stdlib.higher_order`.

A traversal becomes a ``Schedule`` value the way any user operation does: a
plain function that applies an op at every site a generator yields, under
:func:`repro.api.try_op` so a refused site is skipped, lifted with
:func:`repro.api.lift_op`.
"""

from __future__ import annotations

from typing import Iterator

from ..cursors.cursor import Cursor, ForCursor, IfCursor
from ..errors import InvalidCursorError, SchedulingError
from ..primitives import fission, remove_loop, reorder_stmts
from .higher_order import lift, reframe, repeat, seq, try_else

__all__ = [
    "lrn",
    "topdown",
    "bottomup",
    "innermost_loops",
    "reorder_before",
    "remove_parent_loop",
    "fission_after",
    "hoist_stmt",
    "hoist_stmt_loop",
]


# ---------------------------------------------------------------------------
# Traversal strategies (Top = Cursor -> Stream[Cursor])
# ---------------------------------------------------------------------------


def lrn(c) -> Iterator[Cursor]:
    """Post-order (left, right, node) traversal over the loops/ifs below ``c``
    — the paper's example traversal."""
    for child in c.body():
        if isinstance(child, (ForCursor, IfCursor)):
            yield from lrn(child)
        yield child


def topdown(c) -> Iterator[Cursor]:
    """Pre-order traversal of the statements below ``c``."""
    yield c
    if isinstance(c, (ForCursor, IfCursor)):
        for child in c.body():
            yield from topdown(child)
        if isinstance(c, IfCursor):
            for child in c.orelse():
                yield from topdown(child)


def bottomup(c) -> Iterator[Cursor]:
    """Post-order traversal of the statements below ``c``."""
    if isinstance(c, (ForCursor, IfCursor)):
        for child in c.body():
            yield from bottomup(child)
        if isinstance(c, IfCursor):
            for child in c.orelse():
                yield from bottomup(child)
    yield c


def innermost_loops(c) -> Iterator[ForCursor]:
    """All loops below ``c`` that contain no further loops."""
    for cur in topdown(c):
        if isinstance(cur, ForCursor) and not any(isinstance(x, ForCursor) for x in topdown(cur) if x is not cur):
            yield cur


# ---------------------------------------------------------------------------
# Exo-style relative-reference operators, recreated in one line each
# ---------------------------------------------------------------------------

# reorder the statement at the cursor with the statement before it
reorder_before = reframe(lambda c: c.expand(1, 0), lift(reorder_stmts))

# remove the loop enclosing the cursor
remove_parent_loop = reframe(lambda c: c.parent(), lift(remove_loop))

# fission the enclosing loop right after the cursor
fission_after = reframe(lambda c: c.after(), lift(fission))


# The configuration-hoisting schedule of Figure 5c:
#   repeatedly (fission after the statement and remove the enclosing loop),
#   falling back to reordering the statement earlier within its block.
hoist_stmt = repeat(
    try_else(
        seq(fission_after, remove_parent_loop),
        reorder_before,
    )
)


def hoist_stmt_loop(p, c):
    """The same hoisting schedule written with Python loops and exceptions
    (Figure 5b) — kept for comparison with :data:`hoist_stmt`."""
    while True:
        try:
            try:
                while True:
                    p = reorder_stmts(p, p.forward(c).expand(1, 0))
            except SchedulingError:
                pass
            p = fission(p, p.forward(c).after())
            p = remove_loop(p, p.forward(c).parent())
        except (SchedulingError, InvalidCursorError):
            break
    return p
