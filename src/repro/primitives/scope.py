"""Scope-transformation primitives (Appendix A.3): ``specialize``, ``fuse``,
``lift_scope``."""

from __future__ import annotations

from typing import List, Sequence

from ..analysis.effects import loop_splits, reads_written
from ..analysis.linear import exprs_equal
from ..cursors.cursor import BlockCursor, ForCursor, IfCursor
from ..errors import SchedulingError, cursor_location
from ..ir import nodes as N
from ..ir.build import (
    alpha_rename_stmts,
    structurally_equal,
    substitute_reads,
    used_syms_expr,
)
from ..ir.edit import EditSession
from .loops import _interchange_inner_map, _interchange_loops
from ..ir.types import bool_t
from ._base import (
    block_coords,
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_block_cursor,
    to_expr,
    to_stmt_cursor,
)

__all__ = ["specialize", "fuse", "lift_scope"]


@scheduling_primitive
def specialize(proc, block, conds):
    """Duplicate a statement block under an ``if/else`` chain over ``conds``.

    Each condition gets its own copy of the block (enabling further
    constant-specific optimisation of each copy); the final ``else`` keeps the
    original."""
    if isinstance(conds, (str, N.Expr)):
        conds = [conds]
    require(len(conds) >= 1, "specialize: need at least one condition")
    block = to_block_cursor(proc, block)
    stmts = block._stmts()

    cond_exprs = [to_expr(proc, c, block[0]._path) for c in conds]

    def build(i: int) -> List[N.Stmt]:
        if i == len(cond_exprs):
            return alpha_rename_stmts(stmts)
        return [N.If(cond_exprs[i], alpha_rename_stmts(stmts), build(i + 1))]

    new_stmts = build(0)
    owner, attr, lo, hi = block_coords(block)

    def inner_map(offset, rest):
        # map into the first specialised copy
        return (0, (("body", offset),) + rest)

    session = EditSession(proc)
    session.replace((owner, attr, lo, hi), new_stmts, inner_map)
    return session.finish()


@scheduling_primitive
def fuse(proc, scope1, scope2):
    """Fuse two adjacent loops with equal bounds (or two adjacent ifs with
    equal conditions) into one."""
    c1 = to_stmt_cursor(proc, scope1)
    c2 = to_stmt_cursor(proc, scope2)
    owner1, attr1, idx1 = stmt_coords(c1)
    owner2, attr2, idx2 = stmt_coords(c2)
    require(
        (owner1, attr1) == (owner2, attr2) and idx2 == idx1 + 1,
        "fuse: the two scopes must be adjacent statements",
    )
    n1, n2 = c1._node(), c2._node()
    env = proc_fact_env(proc, c1._path)

    if isinstance(n1, N.For) and isinstance(n2, N.For):
        require(
            exprs_equal(n1.hi, n2.hi, env) and exprs_equal(n1.lo, n2.lo, env),
            "fuse: the loops must have identical bounds",
        )
        body2 = [substitute_reads(s, {n2.iter: N.Read(n1.iter)}) for s in alpha_rename_stmts(n2.body)]
        fused = N.For(n1.iter, n1.lo, n1.hi, n1.body + body2, n1.pragma)
        require(
            loop_splits(fused, len(n1.body)),
            "fuse: iterations of the first loop do not commute with iterations of the second",
        )
    elif isinstance(n1, N.If) and isinstance(n2, N.If):
        require(
            exprs_equal(n1.cond, n2.cond, env) or structurally_equal(n1.cond, n2.cond),
            "fuse: the if conditions must be identical",
        )
        # the second condition is evaluated after the first if has run
        require(
            not reads_written((n2.cond,), n1.body + n1.orelse),
            "fuse: the first if writes the condition's inputs",
        )
        fused = N.If(
            n1.cond,
            n1.body + alpha_rename_stmts(n2.body),
            n1.orelse + alpha_rename_stmts(n2.orelse),
        )
    else:
        raise SchedulingError("fuse: expected two loops or two if statements")
    def inner_map(offset, rest):
        # the second scope's statements follow the first's in each list
        if offset == 1 and rest and rest[0][0] in ("body", "orelse"):
            attr, i = rest[0]
            return (0, ((attr, i + len(getattr(n1, attr))),) + rest[1:])
        return (0, rest)

    session = EditSession(proc)
    session.replace((owner1, attr1, idx1, idx1 + 2), [fused], inner_map)
    return session.finish()


@scheduling_primitive
def lift_scope(proc, scope):
    """Interchange a ``for`` or ``if`` statement with its immediately enclosing
    ``for`` or ``if`` (the scope must be the only statement in its parent)."""
    inner_c = to_stmt_cursor(proc, scope)
    inner = inner_c._node()
    require(
        isinstance(inner, (N.For, N.If)),
        f"lift_scope: expected a for or if statement (at: {cursor_location(inner_c)})",
    )
    parent_c = inner_c.parent()
    parent = parent_c._node()
    require(isinstance(parent, (N.For, N.If)), "lift_scope: the parent must be a for or if statement")
    owner_attr, owner_idx = inner_c._path[-1]
    require(
        len(getattr(parent, owner_attr)) == 1,
        "lift_scope: the scope must be the only statement in its parent's body",
    )
    if isinstance(parent, N.For) and isinstance(inner, N.For):
        return _interchange_loops(proc, parent_c, "lift_scope")

    if isinstance(parent, N.For) and isinstance(inner, N.If):
        # for i: if e: s [else: s2]   ->   if e: for i: s [else: for i: s2]
        require(
            parent.iter not in used_syms_expr(inner.cond),
            "lift_scope: the if condition depends on the loop iterator",
        )
        then_loop = N.For(parent.iter, parent.lo, parent.hi, inner.body, parent.pragma)
        orelse: List[N.Stmt] = []
        if inner.orelse:
            it2 = parent.iter.copy()
            orelse_body = alpha_rename_stmts(inner.orelse)
            from ..ir.build import rename_sym_in_stmts

            orelse_body = rename_sym_in_stmts(orelse_body, parent.iter, it2)
            orelse = [N.For(it2, parent.lo, parent.hi, orelse_body, parent.pragma)]
        new_outer = N.If(inner.cond, [then_loop], orelse)

        def inner_map(offset, rest):
            # old: for/body[0]=if/...  ->  new: if/body[0]=for/...; the old
            # else-branch lands in the duplicated loop under the new orelse
            rest = tuple(rest)
            if rest[:1] == (("body", 0),) and len(rest) > 1 and rest[1][0] == "orelse":
                return (0, (("orelse", 0), ("body", rest[1][1])) + rest[2:])
            return _interchange_inner_map(offset, rest)

    elif isinstance(parent, N.If) and isinstance(inner, N.If):
        # if e: (if e2: s else: s2) else: s3   ->  if e2: (if e: s else: s3) else: (if e: s2 else: s3)
        require(owner_attr == "body", "lift_scope: can only lift an if from the then-branch of an if")
        s = inner.body
        s2 = inner.orelse
        s3 = parent.orelse
        then_if = N.If(parent.cond, s, alpha_rename_stmts(s3) if s3 else [])
        else_if = N.If(parent.cond, s2, alpha_rename_stmts(s3) if s3 else []) if (s2 or s3) else None
        new_outer = N.If(inner.cond, [then_if], [else_if] if else_if else [])

        def inner_map(offset, rest):
            # cursors follow the scope they pointed at: the old inner if is
            # the new outer one, the old outer if is ``then_if``; s2 lands in
            # ``else_if`` and s3 in its first copy, ``then_if``'s else-branch
            rest = tuple(rest)
            if rest[:1] == (("body", 0),):
                inner_rest = rest[1:]
                if inner_rest[:1] and inner_rest[0][0] == "orelse":
                    return (0, (("orelse", 0), ("body", inner_rest[0][1])) + inner_rest[1:])
                if inner_rest[:1] and inner_rest[0][0] == "body":
                    return (0, rest)
                return (0, inner_rest)
            if rest[:1] and rest[0][0] == "orelse":
                return (0, (("body", 0), ("orelse", rest[0][1])) + rest[1:])
            return (0, (("body", 0),) + rest)

    else:
        # if e: for i: s   ->   for i: if e: s      (no else allowed)
        require(not parent.orelse, "lift_scope: cannot lift a loop out of an if with an else branch")
        require(owner_attr == "body", "lift_scope: the loop must be in the then-branch")
        guard = N.If(parent.cond, inner.body, [])
        new_outer = N.For(inner.iter, inner.lo, inner.hi, [guard], inner.pragma)
        inner_map = _interchange_inner_map

    session = EditSession(proc)
    session.replace(parent_c, [new_outer], inner_map)
    return session.finish()
