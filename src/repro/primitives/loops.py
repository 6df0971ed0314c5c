"""Loop-transformation primitives (Appendix A.1).

``reorder_loops``, ``divide_loop``, ``divide_with_recompute``, ``mult_loops``,
``cut_loop``, ``join_loops``, ``shift_loop``, ``fission``, ``remove_loop``,
``add_loop``, ``unroll_loop``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..analysis.effects import (
    body_depends_on_iter,
    depends_on_allocs,
    is_idempotent,
    loop_iterations_commute,
    stmts_commute,
    written_buffers,
    accesses_of,
)
from ..analysis.linear import (
    FactEnv,
    const_value,
    exprs_equal,
    linearize,
    prove,
    prove_divisible,
    simplify_expr,
)
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import (
    alpha_rename_stmts,
    collect_allocs,
    structurally_equal,
    substitute_reads,
    used_syms_expr,
)
from ..ir.edit import EditSession
from ..ir.syms import Sym
from ..ir.types import bool_t, index_t
from ._base import (
    const,
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_expr,
    to_gap_cursor,
    to_loop_cursor,
    to_stmt_cursor,
)

__all__ = [
    "reorder_loops",
    "divide_loop",
    "divide_with_recompute",
    "mult_loops",
    "cut_loop",
    "join_loops",
    "shift_loop",
    "fission",
    "remove_loop",
    "add_loop",
    "unroll_loop",
]


def _read(sym: Sym) -> N.Read:
    return N.Read(sym, [], index_t)


def _replace_loop(proc, loop_cursor, new_stmts, inner_map=None):
    session = EditSession(proc)
    session.replace(loop_cursor, new_stmts, inner_map)
    return session.finish()


def _interchange_inner_map(offset, rest):
    """Forwarding map for a perfectly nested scope interchange: cursors follow
    the scope they pointed at (the old outer scope is now the inner one and
    vice versa); statements of the innermost body keep their position."""
    rest = tuple(rest)
    if rest and rest[0] == ("body", 0):
        inner_rest = rest[1:]
        if inner_rest and inner_rest[0][0] in ("body", "orelse"):
            return (0, rest)  # innermost-body statements stay put
        return (0, inner_rest)  # the old inner scope (or its lo/hi/cond) is now outer
    return (0, (("body", 0),) + rest)  # the old outer scope is now inner


# ---------------------------------------------------------------------------
# reorder_loops
# ---------------------------------------------------------------------------


def _interchange_loops(proc, outer, who: str):
    """The one loop-interchange rule, shared by ``reorder_loops`` and the
    for/for arm of ``lift_scope``: ``outer`` holds exactly one loop, that
    loop's bounds do not read ``outer``'s iterator, and the iterations of both
    loops commute."""
    outer_node = outer._node()
    inner_node = outer_node.body[0]
    require(
        outer_node.iter not in used_syms_expr(inner_node.lo)
        and outer_node.iter not in used_syms_expr(inner_node.hi),
        f"{who}: inner loop bounds depend on the outer iterator",
    )
    env = proc_fact_env(proc, outer._path)
    require(
        loop_iterations_commute(outer_node, env),
        f"{who}: outer loop iterations may not commute",
    )
    require(
        loop_iterations_commute(inner_node, env.with_loop(outer_node.iter, outer_node.lo, outer_node.hi)),
        f"{who}: inner loop iterations may not commute",
    )
    new_inner = N.For(outer_node.iter, outer_node.lo, outer_node.hi, inner_node.body, outer_node.pragma)
    new_outer = N.For(inner_node.iter, inner_node.lo, inner_node.hi, [new_inner], inner_node.pragma)
    return _replace_loop(proc, outer, [new_outer], _interchange_inner_map)


@scheduling_primitive
def reorder_loops(proc, loops):
    """Interchange a perfectly nested pair of loops.

    ``loops`` may be a cursor to (or the name of) the outer loop, or a string
    like ``"i j"`` naming the two loops.
    """
    if isinstance(loops, str) and " " in loops:
        loops = loops.split()[0]
    outer = to_loop_cursor(proc, loops)
    outer_node = outer._node()
    require(
        len(outer_node.body) == 1 and isinstance(outer_node.body[0], N.For),
        "reorder_loops: the outer loop's body must be exactly one nested loop",
    )
    return _interchange_loops(proc, outer, "reorder_loops")


# ---------------------------------------------------------------------------
# divide_loop
# ---------------------------------------------------------------------------


@scheduling_primitive
def divide_loop(
    proc,
    loop,
    div_const: int,
    new_iters: Sequence[str],
    *,
    tail: str = "guard",
    perfect: bool = False,
):
    """Divide a loop of ``n`` iterations into outer/inner loops of ``n/c`` and
    ``c`` iterations, using the requested tail strategy
    (``perfect`` / ``guard`` / ``cut`` / ``cut_and_guard``)."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    require(div_const > 0, "divide_loop: the division factor must be positive")
    require(len(new_iters) == 2, "divide_loop: need exactly two new iterator names")
    require(
        const_value(node.lo) == 0,
        "divide_loop: only loops starting at 0 can be divided",
    )
    if perfect:
        tail = "perfect"

    env = proc_fact_env(proc, loop._path)
    hi = node.hi
    c = div_const
    io = Sym(new_iters[0])
    ii = Sym(new_iters[1])
    it = node.iter

    if tail == "perfect":
        hic = const_value(hi)
        ok = (hic is not None and hic % c == 0) or prove_divisible(hi, c, env)
        require(ok, f"divide_loop: cannot prove that {loop.name()}'s bound divides by {c}")

    def subst_body(repl: N.Expr) -> List[N.Stmt]:
        return [substitute_reads(s, {it: repl}) for s in node.body]

    main_expr = N.BinOp("+", N.BinOp("*", const(c), _read(io), index_t), _read(ii), index_t)

    if tail == "perfect":
        outer_hi = N.BinOp("/", hi, const(c), index_t)
        inner = N.For(ii, const(0), const(c), subst_body(main_expr), node.pragma)
        outer = N.For(io, const(0), outer_hi, [inner], node.pragma)
        new_stmts = [outer]

        def inner_map(offset, rest):
            if rest and rest[0][0] == "body":
                return (0, (("body", 0),) + rest)
            return (0, rest)

    elif tail == "guard":
        outer_hi = N.BinOp(
            "/", N.BinOp("+", hi, const(c - 1), index_t), const(c), index_t
        )
        guard = N.If(
            N.BinOp("<", main_expr, hi, bool_t),
            subst_body(main_expr),
            [],
        )
        inner = N.For(ii, const(0), const(c), [guard], node.pragma)
        outer = N.For(io, const(0), outer_hi, [inner], node.pragma)
        new_stmts = [outer]

        def inner_map(offset, rest):
            if rest and rest[0][0] == "body":
                return (0, (("body", 0), ("body", 0)) + rest)
            return (0, rest)

    elif tail in ("cut", "cut_and_guard"):
        outer_hi = N.BinOp("/", hi, const(c), index_t)
        inner = N.For(ii, const(0), const(c), subst_body(main_expr), node.pragma)
        outer = N.For(io, const(0), outer_hi, [inner], node.pragma)
        tail_count = N.BinOp("%", hi, const(c), index_t)
        tail_base = N.BinOp(
            "*", const(c), N.BinOp("/", hi, const(c), index_t), index_t
        )
        ii_tail = Sym(new_iters[1])
        tail_expr = N.BinOp("+", tail_base, _read(ii_tail), index_t)
        tail_loop = N.For(
            ii_tail,
            const(0),
            tail_count,
            [substitute_reads(s, {it: tail_expr}) for s in alpha_rename_stmts(node.body)],
            node.pragma,
        )
        if tail == "cut_and_guard":
            tail_stmt = N.If(
                N.BinOp(">", tail_count, const(0), bool_t), [tail_loop], []
            )
        else:
            tail_stmt = tail_loop
        new_stmts = [outer, tail_stmt]

        def inner_map(offset, rest):
            if rest and rest[0][0] == "body":
                return (0, (("body", 0),) + rest)
            return (0, rest)

    else:
        raise SchedulingError(f"divide_loop: unknown tail strategy {tail!r}")

    return _replace_loop(proc, loop, new_stmts, inner_map)


# ---------------------------------------------------------------------------
# divide_with_recompute
# ---------------------------------------------------------------------------


@scheduling_primitive
def divide_with_recompute(proc, loop, outer_hi, div_const: int, new_iters: Sequence[str]):
    """Divide a loop into ``outer_hi`` outer iterations whose inner loops
    recompute overlapping work: ``for io < N: for ii < c + I - N*c: s``.

    Requires the body to be idempotent and ``N*c <= I``.
    """
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    require(const_value(node.lo) == 0, "divide_with_recompute: loop must start at 0")
    require(len(new_iters) == 2, "divide_with_recompute: need exactly two new iterator names")
    require(is_idempotent(node.body), "divide_with_recompute: the loop body must be idempotent")

    env = proc_fact_env(proc, loop._path)
    outer_hi = to_expr(proc, outer_hi, loop._path)
    c = div_const
    # N*c <= I
    bound_ok = prove(
        N.BinOp("<=", N.BinOp("*", outer_hi, const(c), index_t), node.hi, bool_t),
        env,
    )
    require(bound_ok is True, "divide_with_recompute: cannot prove N*c <= loop bound")

    io = Sym(new_iters[0])
    ii = Sym(new_iters[1])
    inner_hi = simplify_expr(
        N.BinOp(
            "+",
            const(c),
            N.BinOp(
                "-", node.hi, N.BinOp("*", outer_hi, const(c), index_t), index_t
            ),
            index_t,
        ),
        env,
    )
    main_expr = N.BinOp("+", N.BinOp("*", const(c), _read(io), index_t), _read(ii), index_t)
    body = [substitute_reads(s, {node.iter: main_expr}) for s in node.body]
    inner = N.For(ii, const(0), inner_hi, body, node.pragma)
    outer = N.For(io, const(0), outer_hi, [inner], node.pragma)

    def inner_map(offset, rest):
        if rest and rest[0][0] == "body":
            return (0, (("body", 0),) + rest)
        return (0, rest)

    return _replace_loop(proc, loop, [outer], inner_map)


# ---------------------------------------------------------------------------
# mult_loops
# ---------------------------------------------------------------------------


@scheduling_primitive
def mult_loops(proc, loops, new_iter: str):
    """Fuse a perfect 2-deep loop nest ``for i < I: for j < c:`` into a single
    loop ``for k < I*c`` with ``i = k/c`` and ``j = k%c``."""
    outer = to_loop_cursor(proc, loops if not (isinstance(loops, str) and " " in loops) else loops.split()[0])
    node = outer._node()
    require(
        len(node.body) == 1 and isinstance(node.body[0], N.For),
        "mult_loops: the outer loop must contain exactly one nested loop",
    )
    inner = node.body[0]
    c = const_value(inner.hi)
    require(c is not None, "mult_loops: the inner loop bound must be a constant")
    require(const_value(node.lo) == 0 and const_value(inner.lo) == 0, "mult_loops: loops must start at 0")

    k = Sym(new_iter)
    i_repl = N.BinOp("/", _read(k), const(c), index_t)
    j_repl = N.BinOp("%", _read(k), const(c), index_t)
    body = [
        substitute_reads(s, {node.iter: i_repl, inner.iter: j_repl})
        for s in inner.body
    ]
    new_hi = N.BinOp("*", node.hi, const(c), index_t)
    new_loop = N.For(k, const(0), new_hi, body, node.pragma)

    def inner_map(offset, rest):
        rest = tuple(rest)
        if len(rest) >= 2 and rest[0] == ("body", 0) and rest[1][0] == "body":
            return (0, (("body", rest[1][1]),) + rest[2:])
        if rest in ((), (("body", 0),)):
            return (0, ())  # either loop is now the one loop
        return None  # a bound of either loop is gone

    return _replace_loop(proc, outer, [new_loop], inner_map)


# ---------------------------------------------------------------------------
# cut_loop / join_loops / shift_loop
# ---------------------------------------------------------------------------


@scheduling_primitive
def cut_loop(proc, loop, cut_point):
    """Split ``for i in (lo, hi)`` into ``(lo, e)`` and ``(e, hi)``."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    env = proc_fact_env(proc, loop._path)
    cut_point = to_expr(proc, cut_point, loop._path)
    lo_ok = prove(N.BinOp("<=", node.lo, cut_point, bool_t), env)
    hi_ok = prove(N.BinOp("<=", cut_point, node.hi, bool_t), env)
    require(lo_ok is True and hi_ok is True, "cut_loop: cut point must lie between the loop bounds")

    first = N.For(node.iter, node.lo, cut_point, node.body, node.pragma)
    it2 = node.iter.copy()
    second_body = alpha_rename_stmts(node.body)
    from ..ir.build import rename_sym_in_stmts

    second_body = rename_sym_in_stmts(second_body, node.iter, it2)
    second = N.For(it2, cut_point, node.hi, second_body, node.pragma)

    def inner_map(offset, rest):
        return (0, rest)

    return _replace_loop(proc, loop, [first, second], inner_map)


@scheduling_primitive
def join_loops(proc, loop1, loop2):
    """Join two adjacent loops with identical bodies where ``hi1 == lo2``."""
    loop1 = to_loop_cursor(proc, loop1)
    loop2 = to_loop_cursor(proc, loop2)
    n1, n2 = loop1._node(), loop2._node()
    owner1, attr1, idx1 = stmt_coords(loop1)
    owner2, attr2, idx2 = stmt_coords(loop2)
    require(
        owner1 == owner2 and attr1 == attr2 and idx2 == idx1 + 1,
        "join_loops: the loops must be adjacent statements",
    )
    env = proc_fact_env(proc, loop1._path)
    require(exprs_equal(n1.hi, n2.lo, env), "join_loops: the loops must meet (hi1 == lo2)")
    body2 = [substitute_reads(s, {n2.iter: _read(n1.iter)}) for s in n2.body]
    require(
        structurally_equal(n1.body, body2),
        "join_loops: the two loop bodies must be identical",
    )
    new_loop = N.For(n1.iter, n1.lo, n2.hi, n1.body, n1.pragma)
    session = EditSession(proc)
    session.replace(
        (owner1, attr1, idx1, idx1 + 2),
        [new_loop],
        lambda off, rest: (0, rest) if off == 0 else None,
    )
    return session.finish()


@scheduling_primitive
def shift_loop(proc, loop, new_lo):
    """Shift a loop's iteration space so that it starts at ``new_lo``."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    env = proc_fact_env(proc, loop._path)
    new_lo = to_expr(proc, new_lo, loop._path)
    ok = prove(N.BinOp(">=", new_lo, const(0), bool_t), env)
    require(ok is True, "shift_loop: the new lower bound must be non-negative")
    shift = N.BinOp("-", new_lo, node.lo, index_t)
    # i  ->  i - shift  inside the body
    repl = simplify_expr(N.BinOp("-", _read(node.iter), shift, index_t), env)
    body = [substitute_reads(s, {node.iter: repl}) for s in node.body]
    new_hi = simplify_expr(N.BinOp("+", node.hi, shift, index_t), env)
    new_loop = N.For(node.iter, new_lo, new_hi, body, node.pragma)
    return _replace_loop(proc, loop, [new_loop], lambda off, rest: (0, rest))


# ---------------------------------------------------------------------------
# fission
# ---------------------------------------------------------------------------


def _fission_block_safe(before: List[N.Stmt], after: List[N.Stmt], it: Sym, env: FactEnv) -> bool:
    """Is it safe to run all iterations of ``before`` and then all iterations
    of ``after`` (instead of interleaving them per iteration)?

    Sufficient condition: for every buffer written by one side and accessed by
    the other, either all those accesses are reductions, or both sides access
    the buffer through an index that is the same affine function of the loop
    iterator with a non-zero coefficient (each iteration owns its own cells).
    """
    acc_b = accesses_of(before)
    acc_a = accesses_of(after)
    local_b = {a.name for a in collect_allocs(before)}
    by_buf = {}
    for a in acc_b + acc_a:
        by_buf.setdefault(a.buf, []).append(a)
    for buf, lst in by_buf.items():
        if buf in local_b:
            continue
        has_write = any(a.is_write() for a in lst)
        in_before = any(a in acc_b for a in lst)
        in_after = any(a in acc_a for a in lst)
        if not has_write or not (in_before and in_after):
            continue
        if all(a.kind == "reduce" for a in lst if a.is_write()) and not any(
            a.kind == "read" for a in lst
        ):
            continue
        if any(a.idx is None for a in lst):
            return False
        ndim = len(lst[0].idx)
        if any(len(a.idx) != ndim for a in lst):
            return False
        ok = False
        for d in range(ndim):
            forms = [linearize(a.idx[d]) for a in lst]
            if all(f == forms[0] for f in forms) and forms[0].coeff_of(it) != 0:
                ok = True
                break
        if not ok:
            return False
    return True


@scheduling_primitive
def fission(proc, gap, n_lifts: int = 1):
    """Split the loop(s) around ``gap`` into two loops, the first executing the
    statements before the gap and the second the statements after it."""
    gap = to_gap_cursor(proc, gap)
    p = proc
    for _ in range(n_lifts):
        p, gap = _fission_once(p, gap)
    return p


def _fission_once(proc, gap):
    owner_path = gap._owner_path
    attr = gap._attr
    idx = gap._idx
    require(bool(owner_path), "fission: the gap is not inside a loop")
    owner = None
    from ..ir.build import get_node

    owner = get_node(proc._root, owner_path)
    require(
        isinstance(owner, (N.For, N.If)) and attr == "body",
        "fission: the gap must be directly inside a loop or if body",
    )
    before = owner.body[:idx]
    after = owner.body[idx:]
    require(before and after, "fission: the gap must strictly split the loop body")

    if isinstance(owner, N.If):
        # split `if e: s1; s2` into `if e: s1` and `if e: s2` — safe when the
        # first half cannot change the condition's value
        from ..ir.build import used_syms_expr as _use

        require(
            not (_use(owner.cond) & written_buffers(before)),
            "fission: the first half of the if body writes the condition's inputs",
        )
        if1 = N.If(owner.cond, before, [])
        if2 = N.If(owner.cond, alpha_rename_stmts(after), [])
        o_owner, o_attr, o_idx = owner_path[:-1], owner_path[-1][0], owner_path[-1][1]

        def if_inner_map(offset, rest):
            if rest and rest[0][0] == "body":
                j = rest[0][1]
                if j < idx:
                    return (0, rest)
                return (1, (("body", j - idx),) + rest[1:])
            return (0, rest)

        session = EditSession(proc)
        session.replace((o_owner, o_attr, o_idx, o_idx + 1), [if1, if2], if_inner_map)
        new_proc = session.finish()
        from ..cursors.cursor import GapCursor

        return new_proc, GapCursor(new_proc, o_owner, o_attr, o_idx + 1)

    env = proc_fact_env(proc, owner_path).with_loop(owner.iter, owner.lo, owner.hi)
    allocs_before = {a.name for a in collect_allocs(before)}
    require(
        not depends_on_allocs(after, allocs_before),
        "fission: statements after the gap depend on allocations before it",
    )
    require(
        _fission_block_safe(before, after, owner.iter, env),
        "fission: the two halves of the loop body do not commute across iterations",
    )

    loop1 = N.For(owner.iter, owner.lo, owner.hi, before, owner.pragma)
    it2 = owner.iter.copy()
    after_copy = alpha_rename_stmts(after)
    from ..ir.build import rename_sym_in_stmts

    after_copy = rename_sym_in_stmts(after_copy, owner.iter, it2)
    loop2 = N.For(it2, owner.lo, owner.hi, after_copy, owner.pragma)

    loop_owner_path, loop_attr, loop_idx = owner_path[:-1], owner_path[-1][0], owner_path[-1][1]

    def inner_map(offset, rest):
        # offset is always 0 (the loop); rest navigates into the old body
        if rest and rest[0][0] == "body":
            j = rest[0][1]
            if j < idx:
                return (0, rest)
            return (1, (("body", j - idx),) + rest[1:])
        return (0, rest)

    session = EditSession(proc)
    session.replace((loop_owner_path, loop_attr, loop_idx, loop_idx + 1), [loop1, loop2], inner_map)
    new_proc = session.finish()
    from ..cursors.cursor import GapCursor

    # the gap between the two new loops, in the parent's statement list —
    # this is what a multi-level fission continues from
    new_gap = GapCursor(new_proc, loop_owner_path, loop_attr, loop_idx + 1)
    return new_proc, new_gap


# ---------------------------------------------------------------------------
# remove_loop / add_loop / unroll_loop
# ---------------------------------------------------------------------------


@scheduling_primitive
def remove_loop(proc, loop):
    """Replace ``for i: s`` with ``s`` when ``s`` is idempotent, does not
    depend on ``i``, and the loop executes at least once."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    env = proc_fact_env(proc, loop._path)
    require(
        not body_depends_on_iter(node.body, node.iter),
        "remove_loop: the loop body depends on the loop iterator",
    )
    require(is_idempotent(node.body), "remove_loop: the loop body is not idempotent")
    at_least_once = prove(N.BinOp("<", node.lo, node.hi, bool_t), env)
    require(at_least_once is True, "remove_loop: cannot prove the loop executes at least once")

    body = node.body

    def inner_map(offset, rest):
        if rest and rest[0][0] == "body":
            return (rest[0][1], rest[1:])
        return (0, rest) if len(body) == 1 else None

    return _replace_loop(proc, loop, body, inner_map)


@scheduling_primitive
def add_loop(proc, stmt, iter_name: str, hi, *, guard: bool = False):
    """Wrap an idempotent statement (block) in a loop of ``hi`` iterations."""
    block = stmt
    from ..cursors.cursor import BlockCursor

    if not isinstance(block, BlockCursor):
        block = to_stmt_cursor(proc, stmt).as_block()
    else:
        block = proc.forward(block)
    stmts = block._stmts()
    require(is_idempotent(stmts), "add_loop: the statement block must be idempotent")
    hi = to_expr(proc, hi, block[0]._path)
    env = proc_fact_env(proc, block._owner_path)
    pos = prove(N.BinOp(">", hi, const(0), bool_t), env)
    require(pos is True, "add_loop: cannot prove the new loop bound is positive")

    it = Sym(iter_name)

    def make_wrapper(inner: List[N.Stmt]) -> N.Stmt:
        if guard:
            inner = [N.If(N.BinOp("==", _read(it), const(0), bool_t), inner, [])]
        return N.For(it, const(0), hi, inner, "seq")

    def inner_map(offset, rest):
        prefix = (("body", 0), ("body", offset)) if guard else (("body", offset),)
        return (0, prefix + tuple(rest))

    session = EditSession(proc)
    session.wrap(block, make_wrapper, inner_map)
    return session.finish()


@scheduling_primitive
def unroll_loop(proc, loop):
    """Fully unroll a loop with constant bounds."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    lo = const_value(node.lo)
    hi = const_value(node.hi)
    require(lo is not None and hi is not None, "unroll_loop: loop bounds must be constants")
    require(hi - lo > 0, "unroll_loop: loop must have at least one iteration")

    new_stmts: List[N.Stmt] = []
    for v in range(lo, hi):
        body = alpha_rename_stmts(node.body)
        body = [substitute_reads(s, {node.iter: const(v)}) for s in body]
        new_stmts.extend(body)

    body_len = len(node.body)

    def inner_map(offset, rest):
        if rest and rest[0][0] == "body":
            return (rest[0][1], rest[1:])
        return (0, ())

    return _replace_loop(proc, loop, new_stmts, inner_map)
