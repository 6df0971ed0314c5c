"""Simplification primitives (Appendix A.6): ``simplify``,
``eliminate_dead_code``, ``rewrite_expr``, ``merge_writes``, ``inline_window``,
``inline_assign``."""

from __future__ import annotations

from ..analysis.effects import written_buffers
from ..analysis.linear import exprs_equal, simplify_block, simplify_proc
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import get_node, substitute_reads, walk
from ..ir.edit import EditSession
from ..ir.types import index_t
from ._base import (
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_expr,
    to_expr_cursor,
    to_stmt_cursor,
)
from .buffers import _map_accesses

__all__ = [
    "simplify",
    "eliminate_dead_code",
    "rewrite_expr",
    "merge_writes",
    "inline_window",
    "inline_assign",
    "dce",
]


@scheduling_primitive
def simplify(proc):
    """Arithmetically simplify index expressions and eliminate trivially dead
    branches across the whole procedure."""
    new_root = simplify_proc(proc._root)
    # Whole-procedure rewrites do not track fine-grained forwarding; cursors
    # into the simplified procedure keep their paths where statement structure
    # is unchanged, which the identity forward captures heuristically.
    session = EditSession(proc)
    session.set_root(new_root)
    return session.finish()


@scheduling_primitive
def eliminate_dead_code(proc, scope=None):
    """Remove loops that run zero times and branches whose condition is
    statically known within ``scope`` (default: the whole procedure)."""
    if scope is None:
        return simplify.__wrapped__(proc)
    cur = to_stmt_cursor(proc, scope)
    node = cur._node()
    env = proc_fact_env(proc, cur._path)
    new_stmts = simplify_block([node], env)
    session = EditSession(proc)
    session.replace(cur, new_stmts)
    return session.finish()


def dce(proc):
    """Alias for :func:`eliminate_dead_code` over the whole procedure (the
    name used by the paper's Appendix C schedule)."""
    return eliminate_dead_code(proc)


@scheduling_primitive
def rewrite_expr(proc, expr, new_expr):
    """Replace an expression with an equivalent one (equivalence is checked
    with the linear prover under the enclosing facts)."""
    c = to_expr_cursor(proc, expr)
    node = c._node()
    new_expr = to_expr(proc, new_expr, c._path)
    env = proc_fact_env(proc, c._path)
    require(
        exprs_equal(node, new_expr, env),
        "rewrite_expr: cannot prove the two expressions are equivalent",
    )
    session = EditSession(proc)
    session.replace_expr(c, new_expr)
    return session.finish()


@scheduling_primitive
def merge_writes(proc, s1, s2=None):
    """Merge two adjacent writes to the same location (Appendix A.6)."""
    c1 = to_stmt_cursor(proc, s1)
    c2 = to_stmt_cursor(proc, s2) if s2 is not None else c1.next()
    if not c2.is_valid():
        raise SchedulingError("merge_writes: no following statement")
    n1, n2 = c1._node(), c2._node()
    require(
        isinstance(n1, (N.Assign, N.Reduce)) and isinstance(n2, (N.Assign, N.Reduce)),
        "merge_writes: both statements must be writes",
    )
    owner1, attr1, idx1 = stmt_coords(c1)
    owner2, attr2, idx2 = stmt_coords(c2)
    require(
        (owner1, attr1) == (owner2, attr2) and idx2 == idx1 + 1,
        "merge_writes: the writes must be adjacent",
    )
    env = proc_fact_env(proc, c1._path)
    require(n1.name is n2.name and len(n1.idx) == len(n2.idx), "merge_writes: writes target different buffers")
    require(
        all(exprs_equal(a, b, env) for a, b in zip(n1.idx, n2.idx)),
        "merge_writes: writes target different locations",
    )
    # second statement must not read the destination
    reads_dst = any(
        isinstance(node, N.Read) and node.name is n2.name for node, _ in walk(n2.rhs)
    )

    if isinstance(n2, N.Assign):
        require(not reads_dst, "merge_writes: the second write reads its own destination")
        merged: N.Stmt = n2
    else:  # n2 is Reduce
        if isinstance(n1, N.Assign):
            merged = N.Assign(
                n1.name,
                n1.idx,
                N.BinOp("+", n1.rhs, n2.rhs, n1.typ),
                n1.typ,
            )
        else:
            merged = N.Reduce(
                n1.name,
                n1.idx,
                N.BinOp("+", n1.rhs, n2.rhs, n1.typ),
                n1.typ,
            )
    session = EditSession(proc)
    session.replace((owner1, attr1, idx1, idx1 + 2), [merged], lambda off, rest: (0, ()))
    return session.finish()


@scheduling_primitive
def inline_window(proc, window_stmt):
    """Inline a window-binding statement ``w = A[...]`` by substituting the
    window into every element access to ``w``: reads, writes and reductions.
    A window passed on whole or re-windowed is refused."""
    c = to_stmt_cursor(proc, window_stmt)
    node = c._node()
    require(isinstance(node, N.WindowStmt), "inline_window: expected a window statement")
    w = node.rhs

    def into_buffer(a):
        require(a.idx, "inline_window: the window is used whole")
        inner = iter(a.idx)
        # a point dimension is gone from the window's rank; an interval's
        # index is offset by its lower bound
        return {
            "name": w.name,
            "idx": [d.pt if isinstance(d, N.Point) else N.BinOp("+", d.lo, next(inner), index_t) for d in w.idx],
        }

    owner, attr, idx = stmt_coords(c)
    session = EditSession(proc)
    session.delete((owner, attr, idx, idx + 1))
    body = _map_accesses(
        session.root.body, node.name, into_buffer, whole=True, windowed="inline_window: the window is re-windowed"
    )
    session.set_field((), "body", body)
    return session.finish()


@scheduling_primitive
def inline_assign(proc, assign):
    """Inline a scalar assignment ``x = e`` into the following statements and
    delete it (x must not be written again afterwards)."""
    c = to_stmt_cursor(proc, assign)
    node = c._node()
    require(isinstance(node, N.Assign) and not node.idx, "inline_assign: expected a scalar assignment")
    owner, attr, idx = stmt_coords(c)
    owner_node = get_node(proc._root, owner)
    following = getattr(owner_node, attr)[idx + 1 :]
    require(
        node.name not in written_buffers(list(following)),
        "inline_assign: the variable is written again after the assignment",
    )
    env = {node.name: node.rhs}
    new_following = [substitute_reads(s, env) for s in following]
    n_after = len(following)
    session = EditSession(proc)
    session.replace(
        (owner, attr, idx, idx + 1 + n_after),
        new_following,
        lambda off, rest: None if off == 0 else (off - 1, rest),
    )
    return session.finish()
