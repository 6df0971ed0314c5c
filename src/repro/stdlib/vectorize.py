"""The user-defined ``vectorize`` scheduling operator and its helpers
(Section 6.1.1), plus CSE and LICM.

``vectorize`` is parameterised over vector width, precision, memory type and
instruction set, so the same library function targets AVX2, AVX-512, or any
machine created with :func:`repro.machines.make_vector_machine`.  Its steps
follow the paper:

1. expose parallelism by dividing the loop,
2. parallelise reductions (partial sums per vector lane),
3. stage the computation into single-operation statements (Figure 4), with a
   ``rules`` hook such as :func:`fma_rule` controlling staging,
4. fission into one loop per staged statement and ``replace`` each loop with
   the matching hardware instruction.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..analysis.effects import body_depends_on_iter
from ..analysis.linear import const_value
from ..cursors.cursor import (
    AllocCursor,
    AssignCursor,
    BlockCursor,
    ForCursor,
    IfCursor,
    ReduceCursor,
    StmtCursor,
)
from ..errors import InvalidCursorError, SchedulingError
from ..ir import nodes as N
from ..primitives import (
    bind_expr,
    divide_loop,
    expand_dim,
    fission,
    lift_alloc,
    remove_loop,
    reorder_stmts,
    replace_all,
    set_memory,
    set_precision,
    simplify,
    stage_mem,
    stage_reduction,
    unroll_loop,
)
from .tiling import cleanup, interleave_loop

__all__ = [
    "fma_rule",
    "vectorize",
    "stage_compute",
    "fission_into_singles",
    "parallelize_reductions",
    "CSE",
    "LICM",
]


# ---------------------------------------------------------------------------
# staging rules
# ---------------------------------------------------------------------------


def fma_rule(stmt_cursor) -> List[int]:
    """Staging rule: when the statement is ``dst (+)= a * b``, keep the
    multiplication fused with the accumulation so that it later unifies with
    an FMA instruction (Figure 4c)."""
    node = stmt_cursor._node()
    keep: List[int] = []
    rhs = node.rhs
    if isinstance(node, N.Reduce) and isinstance(rhs, N.BinOp) and rhs.op == "*":
        keep.append(id(rhs))
    if (
        isinstance(node, N.Assign)
        and isinstance(rhs, N.BinOp)
        and rhs.op == "+"
        and isinstance(rhs.rhs, N.BinOp)
        and rhs.rhs.op == "*"
    ):
        keep.append(id(rhs.rhs))
    return keep


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def parallelize_reductions(p, loop, vw: int, mem=None, precision: Optional[str] = None, new_prefix: str = "acc_vec"):
    """Stage every reduction carried by ``loop`` whose target does not depend
    on the loop iterator into ``vw`` per-lane partial sums.  When ``mem`` /
    ``precision`` are given, the partial-sum buffer is placed in that (vector
    register) memory."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    k = 0
    while True:
        loop = p.forward(loop) if loop._proc is not p else loop
        target = None
        it = loop.iter_sym()
        for c in loop.find("_ += _", many=True):
            node = c._node()
            from ..ir.build import used_syms_expr

            if node.name.name.startswith(new_prefix):
                continue
            idx_syms = set()
            for i in node.idx:
                idx_syms |= used_syms_expr(i)
            if it not in idx_syms:
                target = c
                break
        if target is None:
            return p
        name = f"{new_prefix}{k}"
        try:
            p = stage_reduction(p, loop, target, name, vw)
        except SchedulingError:
            return p
        if mem is not None:
            p = set_memory(p, name, mem)
        if precision is not None:
            p = set_precision(p, name, precision)
        k += 1
        try:
            loop = p.find_loop(loop.name())
        except InvalidCursorError:
            return p


def _stage_operand(p, expr_cursor, name: str, precision: str, mem):
    p = bind_expr(p, expr_cursor, name)
    p = set_memory(p, name, mem)
    p = set_precision(p, name, precision)
    return p


def stage_compute(p, stmt, precision: str, mem, rules: Sequence[Callable] = (), var_prefix: str = "var"):
    """Stage one Assign/Reduce statement into single-operation statements over
    vector-register temporaries (step 3 of ``vectorize``, Figure 4)."""
    stmt = p.forward(stmt) if stmt._proc is not p else stmt
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{var_prefix}{counter[0]}"

    node = stmt._node()
    keep_ids: List[int] = []
    for rule in rules:
        keep_ids.extend(rule(stmt))

    # 1. stage the destination through a register temporary when it lives in memory
    dest_name = node.name
    tmp_name = None
    dest_is_register = _is_register_read(p, N.Read(dest_name, list(node.idx), None), mem)
    rhs_is_register_read = isinstance(node.rhs, N.Read) and _is_register_read(p, node.rhs, mem)
    # a plain store (memory <- register) or load needs no destination staging
    if node.idx and not dest_is_register and not (isinstance(node, N.Assign) and rhs_is_register_read):
        window = N.WindowExpr(dest_name, [N.Point(i) for i in node.idx], None)
        tmp_name = fresh()
        p = stage_mem(p, stmt.as_block(), window, tmp_name)
        p = set_memory(p, tmp_name, mem)
        p = set_precision(p, tmp_name, precision)
        # re-locate the compute statement (it now writes the temporary)
        stmt = p.find(f"{tmp_name} = _", many=True)
        stmt = [c for c in stmt if not isinstance(c._node().rhs, N.Read) or c._node().rhs.idx][0] if False else None
        # the compute statement is the one between load and store; find it as
        # the statement whose rhs is not a plain read of the destination
        candidates = [c for c in p.find(f"{tmp_name} = _", many=True)] + [
            c for c in p.find(f"{tmp_name} += _", many=True)
        ]
        compute = None
        for c in candidates:
            rhs = c._node().rhs
            if isinstance(rhs, N.Read) and rhs.name is dest_name:
                continue
            compute = c
        if compute is None:
            raise SchedulingError("stage_compute: could not locate the staged compute statement")
        stmt = compute

    # 2. stage operands bottom-up so every statement performs one operation.
    # Each pass re-examines the (current) statement, binds the next operand
    # that still lives outside the register file, and repeats until the
    # statement is a single vector operation.
    def is_simple(p, e) -> bool:
        """Already a register temporary or a constant?"""
        if isinstance(e, N.Const):
            return True
        if isinstance(e, N.Read):
            return _is_register_read(p, e, mem)
        return False

    def pick_candidate(p, stmt_cursor, keep_ids):
        """Choose the next sub-expression of the rhs to bind, or None."""
        node = stmt_cursor._node()
        rhs = node.rhs

        # value-position sub-expressions only (never descend into indices)
        def collect(e, rel):
            out = [(e, rel)]
            if isinstance(e, N.BinOp):
                out += collect(e.lhs, rel + (("lhs", None),))
                out += collect(e.rhs, rel + (("rhs", None),))
            elif isinstance(e, N.USub):
                out += collect(e.arg, rel + (("arg", None),))
            elif isinstance(e, N.Extern):
                for i, a in enumerate(e.args):
                    out += collect(a, rel + (("args", i),))
            return out

        post = collect(rhs, (("rhs", None),))
        post.reverse()
        # 1. any non-register leaf read that is not the entire rhs
        for n, rel in post:
            if n is rhs:
                continue
            if isinstance(n, N.Read) and not _is_register_read(p, n, mem):
                return rel
        # 2. any strict sub-operation whose operands are all simple, unless it
        #    is protected by a staging rule (e.g. the multiply of an FMA)
        for n, rel in post:
            if n is rhs or id(n) in keep_ids:
                continue
            if isinstance(n, N.BinOp) and is_simple(p, n.lhs) and is_simple(p, n.rhs):
                return rel
            if isinstance(n, N.USub) and is_simple(p, n.arg):
                return rel
            if isinstance(n, N.Extern) and all(is_simple(p, a) for a in n.args):
                return rel
        # 3. for reductions, bind the whole rhs unless a rule keeps it fused
        if isinstance(node, N.Reduce) and isinstance(rhs, (N.BinOp, N.USub, N.Extern)):
            if id(rhs) not in keep_ids and not (
                isinstance(rhs, N.BinOp) and is_simple(p, rhs.lhs) and is_simple(p, rhs.rhs) and id(rhs) in keep_ids
            ):
                if id(rhs) not in keep_ids:
                    return (("rhs", None),)
        return None

    guard = 0
    while guard < 64:
        guard += 1
        stmt = p.forward(stmt) if stmt._proc is not p else stmt
        keep_ids = []
        for rule in rules:
            keep_ids.extend(rule(stmt))
        rel = pick_candidate(p, stmt, keep_ids)
        if rel is None:
            break
        from ..cursors.cursor import make_expr_cursor

        target = make_expr_cursor(p, stmt._path + rel)
        name = fresh()
        p = _stage_operand(p, target, name, precision, mem)
    return p


def _is_register_read(p, read: N.Read, mem) -> bool:
    """Is this read already a register (vector-memory) temporary?"""
    from ..ir.build import walk

    for n, _ in walk(p._root):
        if isinstance(n, N.Alloc) and n.name is read.name:
            return n.mem is mem
    return False


def fission_into_singles(p, loop, vw: Optional[int] = None):
    """Expand per-iteration temporaries into per-lane buffers, hoist them out
    of the loop, and fission the loop so each statement gets its own loop
    (step 4 of ``vectorize``)."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    it = loop.iter_sym()
    if vw is None:
        vw = const_value(loop.hi()._node()) or 8

    # expand and hoist allocations out of the loop (and its guard, if any)
    done_names = set()
    while True:
        loop = p.forward(loop) if loop._proc is not p else loop
        allocs = [
            c
            for c in loop.find("_: _", many=True)
            if isinstance(c, AllocCursor) and c.name() not in done_names
        ]
        if not allocs:
            break
        a = allocs[0]
        done_names.add(a.name())
        p = expand_dim(p, a, vw, N.Read(it, [], None))
        a = p.find(f"{a.name()}: _")
        # lift until the allocation sits just outside the vector loop
        lifts = 0
        while lifts < 8:
            lifts += 1
            try:
                p = lift_alloc(p, a)
            except (SchedulingError, InvalidCursorError):
                break
            a = p.find(f"{a.name()}: _")
            loop_f = p.forward(loop)
            if not loop_f.is_valid() or a._path[:-1] == loop_f._path[:-1]:
                break

    # if the loop body is a single guard containing several statements, split
    # the guard first so each statement keeps its own predicate
    while True:
        loop = p.forward(loop)
        body = loop.body()
        if len(body) == 1 and isinstance(body[0], IfCursor) and len(body[0].body()) > 1:
            p = fission(p, body[0].body()[0].after())
            continue
        break

    # fission between every pair of consecutive statements
    while True:
        loop = p.forward(loop)
        body = loop.body() if isinstance(loop, ForCursor) else None
        if body is None or len(body) <= 1:
            break
        p = fission(p, body[0].after())
        # continue with the second of the two loops
        nxt = p.forward(loop)
        follower = nxt.next() if nxt.is_valid() else None
        if follower is None or not follower.is_valid():
            break
        loop = follower
    return p


def CSE(p, scope, precision: str = "f32", prefix: str = "shared"):
    """Common-subexpression elimination over a loop body: repeated buffer
    reads are bound once to a temporary (used before vectorisation so the
    shared load is only issued once; Section 6.2.1)."""
    scope = p.forward(scope) if getattr(scope, "_proc", p) is not p else scope
    if isinstance(scope, BlockCursor):
        stmts = list(scope)
    else:
        stmts = [scope]
    from ..ir.build import walk
    from ..ir.printing import expr_str

    seen = {}
    for s in stmts:
        for n, _ in walk(s._node()):
            if isinstance(n, N.Read) and n.idx:
                seen.setdefault(expr_str(n), []).append(n)
    k = 0
    for text, occurrences in seen.items():
        if len(occurrences) < 2:
            continue
        cursors = []
        for s in stmts:
            s = p.forward(s) if s._proc is not p else s
            try:
                cursors.extend(s.find(text, many=True))
            except InvalidCursorError:
                pass
        if len(cursors) < 2:
            continue
        try:
            p = bind_expr(p, cursors, f"{prefix}{k}", cse=True)
            p = set_precision(p, f"{prefix}{k}", precision)
            k += 1
        except SchedulingError:
            continue
    return p


def LICM(p, loop, rc: bool = False):
    """Loop-invariant code motion: hoist invariant assignments (e.g. vector
    broadcasts) out of the loop."""
    from .tiling import hoist_from_loop

    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    p = hoist_from_loop(p, loop)
    try:
        new_loop = p.find_loop(name)
    except InvalidCursorError:
        new_loop = loop
    if rc:
        return p, (None, new_loop)
    return p


# ---------------------------------------------------------------------------
# the vectorize operator
# ---------------------------------------------------------------------------


def vectorize(
    p,
    loop,
    vw: int,
    precision: str,
    mem_type,
    instrs,
    rules: Sequence[Callable] = (),
    tail: str = "cut",
):
    """Vectorise a loop for a ``vw``-lane machine (Section 6.1.1).

    ``instrs`` is the list of instruction procedures to map onto (typically
    ``machine.get_instructions(precision)``); ``rules`` customises staging
    (e.g. ``[fma_rule]``)."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    loop_name = loop.name()

    # 1. parallelise reductions carried by this loop
    p = parallelize_reductions(p, loop, vw, mem_type, precision)
    loop = p.find_loop(loop_name)

    # 2. expose vector parallelism
    hi = const_value(loop.hi()._node())
    if tail == "perfect" or (hi is not None and hi % vw == 0):
        p = divide_loop(p, loop, vw, [f"{loop_name}o", f"{loop_name}i"], perfect=True)
    else:
        p = divide_loop(p, loop, vw, [f"{loop_name}o", f"{loop_name}i"], tail=tail)
    p = simplify(p)
    inner = p.find_loop(f"{loop_name}i")

    # 3. stage computation into single-operation register statements
    compute_stmts = [
        c
        for c in list(inner.body())
        if isinstance(c, (AssignCursor, ReduceCursor))
        or (isinstance(c, IfCursor) and len(c.body()) == 1)
    ]
    for c in compute_stmts:
        c = p.forward(c)
        if isinstance(c, IfCursor):
            c = c.body()[0]
        if not isinstance(c, (AssignCursor, ReduceCursor)):
            continue
        p = stage_compute(p, c, precision, mem_type, rules)

    # 4. fission into one loop per statement and map to instructions
    inner = p.find_loop(f"{loop_name}i")
    p = fission_into_singles(p, inner, vw)
    p = simplify(p)
    p = replace_all(p, instrs)
    return p


# Lift the vectorizer's vocabulary into the combinator namespace
# (``S.vectorize('i', 8, ...)``; see repro.api).
from ..api import register_op as _register_op  # noqa: E402

for _op in (vectorize, parallelize_reductions, stage_compute, fission_into_singles, CSE, LICM):
    _register_op(_op)
del _op
