"""Code-rearrangement primitives (Appendix A.2): ``reorder_stmts`` and
``commute_expr``."""

from __future__ import annotations

from ..analysis.effects import stmts_commute
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.edit import EditSession
from ._base import (
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_expr_cursor,
    to_stmt_cursor,
)

__all__ = ["reorder_stmts", "commute_expr"]


@scheduling_primitive
def reorder_stmts(proc, s1, s2=None):
    """Swap two adjacent statements ``s1; s2`` into ``s2; s1``.

    If only ``s1`` is given, it is swapped with the following statement.
    """
    from ..cursors.cursor import BlockCursor

    if isinstance(s1, BlockCursor) and s2 is None:
        block = proc.forward(s1) if s1._proc is not proc else s1
        require(len(block) == 2, "reorder_stmts: expected a block of exactly two statements")
        c1, c2 = block[0], block[1]
    else:
        c1 = to_stmt_cursor(proc, s1)
        if s2 is None:
            c2 = c1.next()
            if not c2.is_valid():
                raise SchedulingError("reorder_stmts: there is no following statement to swap with")
        else:
            c2 = to_stmt_cursor(proc, s2)
    owner1, attr1, idx1 = stmt_coords(c1)
    owner2, attr2, idx2 = stmt_coords(c2)
    if (owner1, attr1) != (owner2, attr2):
        raise SchedulingError("reorder_stmts: the two statements are not in the same block")
    if idx2 == idx1 - 1:
        c1, c2 = c2, c1
        idx1, idx2 = idx2, idx1
    require(idx2 == idx1 + 1, "reorder_stmts: the two statements must be adjacent")

    n1, n2 = c1._node(), c2._node()
    env = proc_fact_env(proc, c1._path)
    require(stmts_commute(n1, n2, env), "reorder_stmts: the statements do not commute")

    def inner_map(offset, rest):
        return (1 - offset, rest)

    session = EditSession(proc)
    session.replace((owner1, attr1, idx1, idx1 + 2), [n2, n1], inner_map)
    return session.finish()


@scheduling_primitive
def commute_expr(proc, expr):
    """Commute the operands of a ``+`` or ``*`` expression."""
    c = to_expr_cursor(proc, expr)
    node = c._node()
    require(
        isinstance(node, N.BinOp) and node.op in ("+", "*"),
        "commute_expr: only '+' and '*' expressions can be commuted",
    )
    new_expr = N.BinOp(node.op, node.rhs, node.lhs, node.typ)
    session = EditSession(proc)
    session.replace_expr(c, new_expr)
    return session.finish()
