"""Simplification primitives (Appendix A.6): ``simplify``,
``eliminate_dead_code``, ``rewrite_expr``, ``merge_writes``, ``inline_window``,
``inline_assign``."""

from __future__ import annotations

from typing import List

from ..analysis.effects import written_buffers
from ..analysis.linear import FactEnv, const_value, exprs_equal, prove, simplify_expr
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import (
    get_node,
    map_exprs,
    same_tree,
    substitute_reads,
    walk,
    with_fields,
)
from ..ir.edit import EditSession
from ..ir.types import TensorType
from ._base import (
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_expr_cursor,
    to_stmt_cursor,
)

__all__ = [
    "simplify",
    "eliminate_dead_code",
    "rewrite_expr",
    "merge_writes",
    "inline_window",
    "inline_assign",
    "dce",
]


def _simplify_stmts(stmts: List[N.Stmt], env: FactEnv) -> List[N.Stmt]:
    """Simplify a block under ``env``.  Statements that were already simple
    come back as the same objects (and an already-simple block as the same
    list), so the result shares them with the input."""

    def simp(e):
        return _simplify_window(e, env) if isinstance(e, N.WindowExpr) else simplify_expr(e, env)

    def rebuilt(s, **fields):
        changes = {k: v for k, v in fields.items() if not same_tree(v, getattr(s, k))}
        return with_fields(s, **changes) if changes else s

    out: List[N.Stmt] = []
    for s in stmts:
        if isinstance(s, (N.Assign, N.Reduce)):
            out.append(rebuilt(s, idx=[simp(i) for i in s.idx], rhs=simp(s.rhs)))
        elif isinstance(s, N.For):
            lo, hi = simp(s.lo), simp(s.hi)
            body = _simplify_stmts(s.body, env.with_loop(s.iter, lo, hi))
            lo_c, hi_c = const_value(lo), const_value(hi)
            if lo_c is not None and hi_c is not None and hi_c <= lo_c:
                continue  # trivially empty loop
            out.append(rebuilt(s, lo=lo, hi=hi, body=body))
        elif isinstance(s, N.If):
            cond = simp(s.cond)
            verdict = prove(cond, env) if not isinstance(cond, N.Const) else bool(cond.val)
            if verdict is False:
                out.extend(_simplify_stmts(s.orelse, env))
                continue
            body_env = env.copy()
            body_env.add_predicate(cond)
            body = _simplify_stmts(s.body, body_env)
            if verdict is True:
                out.extend(body)
                continue
            out.append(rebuilt(s, cond=cond, body=body, orelse=_simplify_stmts(s.orelse, env)))
        elif isinstance(s, N.Call):
            out.append(rebuilt(s, args=[simp(a) for a in s.args]))
        elif isinstance(s, (N.WriteConfig, N.WindowStmt)):
            out.append(rebuilt(s, rhs=simp(s.rhs)))
        elif isinstance(s, N.Alloc) and isinstance(s.typ, TensorType):
            typ = TensorType(s.typ.base, [simp(e) for e in s.typ.shape], s.typ.is_window)
            out.append(rebuilt(s, typ=typ))
        else:
            out.append(s)
    unchanged = len(out) == len(stmts) and all(a is b for a, b in zip(out, stmts))
    return stmts if unchanged else out


def _simplify_window(w: N.WindowExpr, env: FactEnv) -> N.WindowExpr:
    new_idx = []
    for d in w.idx:
        if isinstance(d, N.Interval):
            new_idx.append(N.Interval(simplify_expr(d.lo, env), simplify_expr(d.hi, env)))
        else:
            new_idx.append(N.Point(simplify_expr(d.pt, env)))
    return w if same_tree(new_idx, w.idx) else with_fields(w, idx=new_idx)


def _simplify_root(root: N.ProcDef) -> N.ProcDef:
    body = _simplify_stmts(root.body, FactEnv.from_proc(root))
    return root if body is root.body else with_fields(root, body=body)


@scheduling_primitive
def simplify(proc):
    """Arithmetically simplify index expressions and eliminate trivially dead
    branches across the whole procedure."""
    new_root = _simplify_root(proc._root)
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
    new_stmts = _simplify_stmts([node], env)
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
    if isinstance(new_expr, str):
        from ..frontend.parser import parse_expr_fragment

        new_expr = parse_expr_fragment(new_expr, proc._root)
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
    window into every use of ``w``."""
    c = to_stmt_cursor(proc, window_stmt)
    node = c._node()
    require(isinstance(node, N.WindowStmt), "inline_window: expected a window statement")
    w = node.rhs
    buf = w.name
    # compute per-dimension offsets; Point dims disappear from the window's rank
    offsets = []
    for d in w.idx:
        if isinstance(d, N.Interval):
            offsets.append(("interval", d.lo))
        else:
            offsets.append(("point", d.pt))

    def rewrite_access(e: N.Expr) -> N.Expr:
        if isinstance(e, N.Read) and e.name is node.name:
            new_idx = []
            k = 0
            for kind, off in offsets:
                if kind == "point":
                    new_idx.append(off)
                else:
                    new_idx.append(N.BinOp("+", off, e.idx[k], e.typ))
                    k += 1
            return N.Read(buf, new_idx, e.typ)
        return e

    owner, attr, idx = stmt_coords(c)
    # delete the window statement, then rewrite the remainder of the procedure
    session = EditSession(proc)
    session.delete((owner, attr, idx, idx + 1))
    session.set_field((), "body", [map_exprs(s, rewrite_access) for s in session.root.body])
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
