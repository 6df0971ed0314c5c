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

import itertools
from typing import Callable, List, Optional, Sequence

from ..analysis.effects import accesses_of
from ..analysis.linear import const_value
from ..api import register_op, try_op
from ..cursors.cursor import (
    AllocCursor,
    AssignCursor,
    BlockCursor,
    ForCursor,
    IfCursor,
    ReduceCursor,
    make_expr_cursor,
)
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import allocs_by_sym, collect_allocs, declaration, used_syms_expr, walk
from ..ir.printing import expr_str
from ..ir.types import scalar_type_from_name
from ..primitives import (
    bind_expr,
    divide_loop,
    expand_dim,
    fission,
    lift_alloc,
    replace_all,
    set_memory,
    set_precision,
    simplify,
    stage_mem,
    stage_reduction,
)
from .tiling import hoist_from_loop

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


def _fresh_names(p, prefix: str, first: int = 0):
    """``{prefix}{first}``, ``{prefix}{first + 1}``, … minus the names that
    allocations of ``p`` already carry: by-name references to a new temporary
    stay unambiguous however many statements or loops of one procedure get
    staged."""
    taken = {sym.name for sym in allocs_by_sym(p._root)}
    return (f"{prefix}{k}" for k in itertools.count(first) if f"{prefix}{k}" not in taken)


def parallelize_reductions(p, loop, vw: int, mem=None, precision: Optional[str] = None):
    """Stage every reduction carried by ``loop`` whose target does not depend
    on the loop iterator into ``vw`` per-lane partial sums, one buffer per
    target (the rows of an unroll-and-jammed reduction stay independent
    accumulator chains).  When ``mem`` / ``precision`` are given, the
    partial-sum buffers are placed in that (vector register) memory."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    names = _fresh_names(p, "acc_vec")
    while True:
        loop = p.forward(loop)
        it = loop.iter_sym()
        target = next(
            (
                c
                for c in loop.find("_ += _", many=True)
                if not c._node().name.name.startswith("acc_vec")
                and not any(it in used_syms_expr(i) for i in c._node().idx)
            ),
            None,
        )
        if target is None:
            return p
        name = next(names)
        p = stage_reduction(p, loop, target, name, vw)
        if mem is not None:
            p = set_memory(p, name, mem)
        if precision is not None:
            p = _with_precision(p, name, precision)


def stage_compute(p, stmt, precision: str, mem, rules: Sequence[Callable] = ()):
    """Stage one Assign/Reduce statement into single-operation statements over
    vector-register temporaries (step 3 of ``vectorize``, Figure 4).  The
    temporaries take the first ``var{k}`` names no allocation of the
    procedure has yet, so staging a second statement never shadows the first
    one's."""
    stmt = p.forward(stmt) if stmt._proc is not p else stmt
    names = _fresh_names(p, "var", 1)
    node = stmt._node()

    # 1. stage the destination through a register temporary when it lives in memory
    dest_name = node.name
    dest_is_register = _is_register(p, dest_name, mem)
    rhs_is_register_read = isinstance(node.rhs, N.Read) and _is_register(p, node.rhs.name, mem)
    # a plain store (memory <- register) or load needs no destination staging
    if node.idx and not dest_is_register and not (isinstance(node, N.Assign) and rhs_is_register_read):
        window = N.WindowExpr(dest_name, [N.Point(i) for i in node.idx], declaration(p._root, dest_name).typ.as_window())
        tmp_name = next(names)
        p = stage_mem(p, stmt.as_block(), window, tmp_name)
        p = _in_register(p, tmp_name, precision, mem)
        # the compute statement sits between the load and the store: the one
        # writing the temporary whose rhs is not a plain read of the
        # destination (stage_mem put the temporary in the statement's place of
        # the staged point, so there is always one)
        compute = None
        for c in p.find(f"{tmp_name} = _", many=True) + p.find(f"{tmp_name} += _", many=True):
            rhs = c._node().rhs
            if not (isinstance(rhs, N.Read) and rhs.name is dest_name):
                compute = c
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
            return _is_register(p, e.name, mem)
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
            if isinstance(n, N.Read) and not _is_register(p, n.name, mem):
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
        name = next(names)
        p = bind_expr(p, make_expr_cursor(p, stmt._path + rel), name)
        p = _in_register(p, name, precision, mem)
    return p


def _with_precision(p, buf, precision: str):
    """``set_precision``, unless the temporary was bound at that precision."""
    alloc = p.find_alloc_or_arg(buf) if isinstance(buf, str) else p.forward(buf)
    if alloc._node().typ.basetype() is scalar_type_from_name(precision):
        return p
    return set_precision(p, alloc, precision)


def _in_register(p, buf, precision: str, mem):
    """Place the temporary ``buf`` (a name or an allocation cursor) in the
    vector-register memory ``mem``."""
    return _with_precision(set_memory(p, buf, mem), buf, precision)


def _is_register(p, sym, mem) -> bool:
    """Is ``sym`` a register (vector-memory) temporary?"""
    alloc = allocs_by_sym(p._root).get(sym)
    return alloc is not None and alloc.mem is mem


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
        p = expand_dim(p, a, vw, N.Read(it))
        a = p.forward(a)
        # lift until the allocation sits just outside the vector loop
        lifts = 0
        while lifts < 8:
            lifts += 1
            lifted = try_op(p, lift_alloc, a)
            if lifted is p:
                break
            p = lifted
            a = p.forward(a)
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
        # continue with the second of the two loops (the loop's own cursor
        # forwards to the first)
        loop = p.forward(loop).next()
    return p


def CSE(p, scope, precision: str = "f32"):
    """Common-subexpression elimination over a loop body: repeated buffer
    reads are bound once to a temporary (used before vectorisation so the
    shared load is only issued once; Section 6.2.1)."""
    scope = p.forward(scope) if getattr(scope, "_proc", p) is not p else scope
    if isinstance(scope, BlockCursor):
        stmts = list(scope)
    else:
        stmts = [scope]
    seen = {}
    for s in stmts:
        for n, _ in walk(s._node()):
            if isinstance(n, N.Read) and n.idx:
                seen.setdefault(expr_str(n), []).append(n)
    names = _fresh_names(p, "shared")
    for text, occurrences in seen.items():
        if len(occurrences) < 2:
            continue
        cursors = []
        for s in stmts:
            cursors.extend(p.forward(s).find(text, many=True))
        name = next(names)
        bound = try_op(p, bind_expr, cursors, name, cse=True)
        if bound is not p:
            p = set_precision(bound, name, precision)
    return p


def LICM(p, loop):
    """Loop-invariant code motion: hoist invariant assignments (e.g. vector
    broadcasts) out of the loop."""
    return hoist_from_loop(p, loop)


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

    # A scalar the body assigns once, from a buffer it never writes, only
    # names a common load (what CSE binds): in a register it is one vector
    # load.  Any other temporary would have to become a per-lane array in
    # memory — refused before anything is rewritten
    body = loop._node().body
    stores = [a.buf for a in accesses_of(body) if a.is_write()]
    for a in collect_allocs(body):
        if stores.count(a.name) != 1 or not any(
            isinstance(s, N.Assign)
            and s.name is a.name
            and not s.idx
            and isinstance(s.rhs, N.Read)
            and s.rhs.idx
            and s.rhs.name not in stores
            for s in body
        ):
            raise SchedulingError(
                f"vectorize: the loop carries the temporary {a.name.name!r} through memory; "
                "only a common load of a buffer the loop does not write is kept in a register"
            )

    # 1. parallelise reductions carried by this loop
    p = parallelize_reductions(p, loop, vw, mem_type, precision)
    loop = p.forward(loop)

    # 2. expose vector parallelism.  The loops are followed by cursor from
    # here on: a procedure may hold other loops with these names
    hi = const_value(loop.hi()._node())
    if tail == "perfect" or (hi is not None and hi % vw == 0):
        p = divide_loop(p, loop, vw, [f"{loop_name}o", f"{loop_name}i"], perfect=True)
    else:
        p = divide_loop(p, loop, vw, [f"{loop_name}o", f"{loop_name}i"], tail=tail)
    outer = p.forward(loop)
    p = simplify(p)
    inner = p.forward(outer).body()[0]
    if not (isinstance(inner, ForCursor) and inner.name() == f"{loop_name}i"):
        raise SchedulingError(f"vectorize: lost the lane loop of {loop_name!r} to simplification")

    # 3. stage computation into single-operation register statements, the
    # common loads first
    for a in inner.find("_: _", many=True):
        p = _in_register(p, a, precision, mem_type)

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
    p = fission_into_singles(p, inner, vw)
    p = simplify(p)
    p = replace_all(p, instrs)
    return p


# Lift the vectorizer's vocabulary into the combinator namespace
# (``S.vectorize('i', 8, ...)``; see repro.api).
for _op in (vectorize, parallelize_reductions, stage_compute, fission_into_singles, CSE, LICM):
    register_op(_op)
del _op
