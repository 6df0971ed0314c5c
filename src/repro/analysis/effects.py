"""Effect and dependence analysis.

Scheduling primitives justify their safety with questions like *do these two
statements commute?*, *do distinct iterations of this loop commute?*, or *is
this statement block idempotent?*.  This module answers those questions
conservatively (a ``False`` answer means "could not prove safe", not
"provably unsafe") using the linear analysis of :mod:`repro.analysis.linear`.

Every answer reads one access summary per statement (:func:`accesses_of`).
Its locations are buffers and configuration fields: a field is the pair
``(config, field name)``, read by a ``ReadConfig`` and written by a
``WriteConfig``, with no index.  A call contributes its callee's field reads
and writes, summarised once per callee (the call graph is acyclic).
:func:`exposed_reads` names the fields a block may read before it writes
them, and :func:`split_classes` is the one rule for moving one part of a
loop body's iterations past another's: ``loop_iterations_commute``,
``par_write_classes``, ``fission`` and ``fuse`` all ask it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..ir import nodes as N
from ..ir.build import collect_allocs, structurally_equal, used_syms_expr, walk
from ..ir.syms import Sym
from .linear import FactEnv, LinearForm, linearize, prove

__all__ = [
    "Access",
    "accesses_of",
    "exposed_reads",
    "written_buffers",
    "written_arguments",
    "read_buffers",
    "accesses_disjoint",
    "distinct_cells",
    "stmts_commute",
    "split_classes",
    "loop_iterations_commute",
    "loop_splits",
    "reads_written",
    "ParUnproven",
    "par_write_classes",
    "is_idempotent",
    "depends_on_allocs",
    "body_depends_on_iter",
]


Field = Tuple[object, str]  # (Config, field name)


@dataclass(frozen=True, slots=True)
class Access:
    """One access to a location: a buffer, or a configuration field
    (``buf`` is then the pair ``(config, field name)``).

    ``idx`` is the list of index expressions for an element access (the
    accessing node's own list, never mutated), or ``None`` for whole-buffer
    accesses (window arguments, calls) and fields.  Frozen: one summary is
    shared by every caller that asks about the statement.
    """

    buf: object  # a Sym, or a (Config, field name) pair
    kind: str  # 'read' | 'write' | 'reduce'
    idx: Optional[List[N.Expr]]

    def is_write(self) -> bool:
        return self.kind in ("write", "reduce")


def _expr_accesses(e: N.Expr, out: List[Access]) -> None:
    for node, _ in walk(e):
        if isinstance(node, N.Read):
            out.append(Access(node.name, "read", node.idx))
        elif isinstance(node, (N.WindowExpr, N.StrideExpr)):
            out.append(Access(node.name, "read", None))
        elif isinstance(node, N.ReadConfig):
            out.append(Access((node.config, node.field_name), "read", None))


def accesses_of(stmts) -> List[Access]:
    """All accesses (to buffers and configuration fields) performed by a
    statement or statement list: the
    concatenation of one summary per statement, memoised on the statement
    (a pure function of the immutable node, so an edit that leaves a
    statement in place leaves its summary valid)."""
    if not isinstance(stmts, list):
        return list(_stmt_accesses(stmts))
    out: List[Access] = []
    for s in stmts:
        out.extend(_stmt_accesses(s))
    return out


def _stmt_accesses(s: N.Stmt) -> Tuple[Access, ...]:
    return N.memo(s, "_accesses", _summarise)


def _summarise(s: N.Stmt) -> Tuple[Access, ...]:
    out: List[Access] = []
    if isinstance(s, (N.Assign, N.Reduce)):
        for i in s.idx:
            _expr_accesses(i, out)
        _expr_accesses(s.rhs, out)
        out.append(Access(s.name, "write" if isinstance(s, N.Assign) else "reduce", s.idx))
    elif isinstance(s, N.For):
        _expr_accesses(s.lo, out)
        _expr_accesses(s.hi, out)
        for b in s.body:
            out.extend(_stmt_accesses(b))
    elif isinstance(s, N.If):
        _expr_accesses(s.cond, out)
        for b in s.body + s.orelse:
            out.extend(_stmt_accesses(b))
    elif isinstance(s, N.Call):
        callee = s.proc._root
        for arg_expr, fn_arg in zip(s.args, callee.args):
            if isinstance(arg_expr, N.WindowExpr):
                out.append(Access(arg_expr.name, "read", None))
                out.append(Access(arg_expr.name, "write", None))
                for w in arg_expr.idx:
                    _expr_accesses(w, out)  # an Interval's or Point's expressions
            elif isinstance(arg_expr, N.Read) and arg_expr.idx == [] and _is_tensor_arg(fn_arg):
                out.append(Access(arg_expr.name, "read", None))
                out.append(Access(arg_expr.name, "write", None))
            else:
                _expr_accesses(arg_expr, out)
        out.extend(N.memo(callee, "_field_accesses", _field_accesses))
    elif isinstance(s, N.WindowStmt):
        out.append(Access(s.rhs.name, "read", None))
        out.append(Access(s.name, "write", None))
    elif isinstance(s, N.WriteConfig):
        _expr_accesses(s.rhs, out)
        out.append(Access((s.config, s.field_name), "write", None))
    return tuple(out)


def _field_accesses(root: N.ProcDef) -> Tuple[Access, ...]:
    """The configuration-field accesses of a callee's body (its own calls'
    included), which a call performs whatever its arguments."""
    return tuple(a for a in accesses_of(root.body) if isinstance(a.buf, tuple))


def exposed_reads(stmts) -> Set[Field]:
    """The configuration fields ``stmts`` may read before writing them.

    A ``WriteConfig`` of the block itself (after its right-hand side is
    read) hides its field from the statements that follow it.  A loop or an
    ``if`` exposes what its bounds or condition read and what its bodies
    expose, and hides nothing (its body may not run); a call exposes every
    field its callee reads."""
    out: Set[Field] = set()
    written: Set[Field] = set()
    for s in stmts:
        out |= N.memo(s, "_exposed", _stmt_exposed) - written
        if isinstance(s, N.WriteConfig):
            written.add((s.config, s.field_name))
    return out


def _stmt_exposed(s: N.Stmt) -> FrozenSet[Field]:
    if isinstance(s, (N.For, N.If)):
        head = (s.lo, s.hi) if isinstance(s, N.For) else (s.cond,)
        bodies = (s.body,) if isinstance(s, N.For) else (s.body, s.orelse)
        reads = frozenset(a.buf for e in head for a in _expr_reads(e) if isinstance(a.buf, tuple))
        return reads.union(*map(exposed_reads, bodies))
    return frozenset(a.buf for a in _stmt_accesses(s) if isinstance(a.buf, tuple) and a.kind == "read")


def _expr_reads(e: N.Expr) -> Tuple[Access, ...]:
    return N.memo(e, "_reads", _summarise_expr)


def _summarise_expr(e: N.Expr) -> Tuple[Access, ...]:
    out: List[Access] = []
    _expr_accesses(e, out)
    return tuple(out)


def _is_tensor_arg(fn_arg) -> bool:
    from ..ir.types import TensorType

    return isinstance(getattr(fn_arg, "typ", None), TensorType)


def written_buffers(stmts) -> Set[Sym]:
    return {a.buf for a in accesses_of(stmts) if a.is_write()}


def read_buffers(stmts) -> Set[Sym]:
    return {a.buf for a in accesses_of(stmts) if a.kind == "read" or a.kind == "reduce"}


def written_arguments(root: N.ProcDef) -> FrozenSet[Sym]:
    """The tensor arguments ``root`` may store into: assigned or reduced
    directly, through a window alias, or passed to a callee parameter that is
    itself written.  Unlike :func:`written_buffers`, a call counts only the
    parameters its callee writes (a vector load does not write its source).
    Memoised on the root."""
    return N.memo(root, "_written_args_cache", _written_arguments)


def _written_arguments(root: N.ProcDef) -> FrozenSet[Sym]:
    base: Dict[Sym, Sym] = {}  # window alias -> the buffer it views
    written: Set[Sym] = set()

    def visit(stmts) -> None:
        for s in stmts:
            if isinstance(s, (N.Assign, N.Reduce)):
                written.add(base.get(s.name, s.name))
            elif isinstance(s, N.WindowStmt):
                base[s.name] = base.get(s.rhs.name, s.rhs.name)
            elif isinstance(s, N.Call):
                callee = s.proc._root
                inner = written_arguments(callee)
                for fa, actual in zip(callee.args, s.args):
                    if fa.name in inner and isinstance(actual, (N.Read, N.WindowExpr)):
                        written.add(base.get(actual.name, actual.name))
            elif isinstance(s, N.For):
                visit(s.body)
            elif isinstance(s, N.If):
                visit(s.body)
                visit(s.orelse)

    visit(root.body)
    return frozenset(a.name for a in root.args if _is_tensor_arg(a) and a.name in written)


def accesses_disjoint(a1: Access, a2: Access, env: FactEnv) -> bool:
    """Can we prove the two accesses touch disjoint elements?"""
    if a1.idx is None or a2.idx is None:
        return False
    for i1, i2 in zip(a1.idx, a2.idx):
        if prove(N.BinOp("!=", i1, i2), env) is True:
            return True
    return False


def stmts_commute(s1, s2, env: Optional[FactEnv] = None) -> bool:
    """Can the two statements (or statement blocks) be reordered safely?  A
    configuration field has no index, so any write of it conflicts with any
    other access."""
    env = env or FactEnv()
    acc1 = accesses_of(s1)
    acc2 = accesses_of(s2)
    # allocations local to either side shield their accesses
    local1 = {a.name for a in collect_allocs(s1 if isinstance(s1, list) else [s1])}
    local2 = {a.name for a in collect_allocs(s2 if isinstance(s2, list) else [s2])}
    local = local1 | local2

    # statements that read allocations made in the other are not reorderable
    for a in acc2:
        if a.buf in local1:
            return False
    for a in acc1:
        if a.buf in local2:
            return False

    by_buf: Dict[Sym, List[Access]] = {}
    for a in acc2:
        by_buf.setdefault(a.buf, []).append(a)
    for a1 in acc1:
        if a1.buf in local:
            continue
        for a2 in by_buf.get(a1.buf, ()):
            if not (a1.is_write() or a2.is_write()):
                continue
            if a1.kind == "reduce" and a2.kind == "reduce":
                continue  # reductions into the same buffer commute
            if accesses_disjoint(a1, a2, env):
                continue
            return False
    return True


def _iteration_facts(body: Sequence[N.Stmt]) -> Tuple[Set[Sym], FactEnv]:
    """The symbols ``body`` binds or writes (they change within one iteration
    of its loop), and the ranges of the loops nested in it."""
    varying, env = set(), FactEnv()
    for node, _ in (found for s in body for found in walk(s)):
        if isinstance(node, N.For):
            varying.add(node.iter)
            env = env.with_loop(node.iter, node.lo, node.hi)
        elif isinstance(node, (N.Assign, N.Reduce, N.Alloc, N.WindowStmt)):
            varying.add(node.name)
    return varying, env


def distinct_cells(lst: List[Access], it: Sym, body: Sequence[N.Stmt]) -> bool:
    """Do the accesses (to one buffer, so all of its rank) share an index
    dimension that is the *same* form ``c * it + rest`` in each, with ``c``
    non-zero and ``rest`` moving by less than ``|c|`` within one iteration of
    the loop over ``body`` (``6 * io + ii`` with ``ii`` in ``[0, 6)``)?
    Distinct iterations then touch distinct elements."""
    if any(a.idx is None for a in lst):
        return False
    varying = None
    for d in range(len(lst[0].idx)):
        form = linearize(lst[0].idx[d])
        c = form.coeff_of(it)
        if c == 0 or any(linearize(a.idx[d]) != form for a in lst):
            continue
        if varying is None:
            varying, env = _iteration_facts(body)
        moving = {}
        for key, coeff in form.terms.items():
            syms = {s for a in key for s in ({a} if isinstance(a, Sym) else used_syms_expr(a.expr))}
            if key != (it,) and it in syms:
                break  # ``i % 2``: a term in ``it`` other than ``c * it``
            if syms & varying:
                moving[key] = coeff
        else:
            lo, hi = env.interval(LinearForm(moving))
            if lo is not None and hi is not None and hi - lo < abs(c):
                return True
    return False


Classes = Dict[Sym, Optional[List[List[N.Expr]]]]


def split_classes(it: Sym, first: Sequence[N.Stmt], second: Sequence[N.Stmt]) -> Optional[Classes]:
    """The one rule for moving iterations of a loop over ``it`` past each
    other: can every iteration of ``second`` run before or after every other
    iteration of ``first``?  ``first is second`` asks whether the iterations
    of that body commute; two halves ask whether ``for it: first; second`` is
    ``for it: first`` followed by ``for it: second`` (fission, and fuse the
    other way round).

    Decided per location that one side writes and the other accesses, minus
    the iterator and the buffers a body allocates (private to an iteration):

    * a buffer passes when every access shares an index dimension that tells
      iterations apart (:func:`distinct_cells`; class ``None``, *shared*), or
      when every access is ``+=`` (additions commute; class: the write
      indices, *reduce*);
    * a configuration field passes when no side exposes a read of it
      (:func:`exposed_reads`), and every write of it is a ``WriteConfig`` of
      the sides (not a callee's) of one value, which reads neither ``it``
      nor anything the sides bind or write: each iteration then reads only
      what it wrote itself, and the field ends the same in any order.

    Returns the classes of the buffers, or ``None`` when some location fails.
    The proof reads only the statements: it compares index forms, and bounds
    the loops nested in them by their own bounds."""
    if first is second:
        halves, body, local = (first,), first, {a.name for a in collect_allocs(first)}
    else:  # what one half allocates, the other cannot see
        halves, body, local = (first, second), list(first) + list(second), set()
    by_loc: Dict[object, List[Access]] = {}
    sides: Dict[object, int] = {}
    for side, half in enumerate(halves):
        for a in accesses_of(half):
            if a.buf not in local and a.buf is not it:
                by_loc.setdefault(a.buf, []).append(a)
                sides[a.buf] = sides.get(a.buf, 0) | 1 << side
    both = (1 << len(halves)) - 1
    classes: Classes = {}
    for loc, lst in by_loc.items():
        if sides[loc] != both:
            continue
        writes = [a for a in lst if a.is_write()]
        if not writes:
            continue
        if isinstance(loc, tuple):
            if not _field_splits(loc, it, halves, body):
                return None
        elif distinct_cells(lst, it, body):
            classes[loc] = None
        elif all(a.kind == "reduce" for a in lst):
            # additions commute, so the iteration order is unobservable (a
            # read of the same buffer would need the disjointness proof)
            classes[loc] = [a.idx for a in writes]
        else:
            return None
    return classes


def _field_splits(field, it: Sym, halves, body) -> bool:
    values: List[N.Expr] = []
    for half in halves:
        if field in exposed_reads(half):
            return False
        for n, _ in (found for s in half for found in walk(s)):
            if isinstance(n, N.WriteConfig) and (n.config, n.field_name) == field:
                values.append(n.rhs)
            elif isinstance(n, N.Call) and any(a.buf == field and a.is_write() for a in _stmt_accesses(n)):
                return False  # a callee writes it
    varying = _iteration_facts(body)[0] | {it}
    return all(not (used_syms_expr(v) & varying) and structurally_equal(v, values[0]) for v in values)


def loop_iterations_commute(loop: N.For) -> bool:
    """Do distinct iterations of ``loop`` commute (no loop-carried
    dependence)?  :func:`split_classes` with both sides the body."""
    return split_classes(loop.iter, loop.body, loop.body) is not None


def reads_written(exprs: Sequence[N.Expr], stmts: Sequence[N.Stmt]) -> bool:
    """Does any of ``exprs`` read a location (buffer or configuration field)
    that ``stmts`` may write?"""
    reads = {a.buf for e in exprs for a in _expr_reads(e)}
    return any(a.is_write() and a.buf in reads for a in accesses_of(stmts))


def loop_splits(loop: N.For, at: int) -> bool:
    """Is ``loop`` the same as one loop over its first ``at`` statements
    followed by one over the rest?  The first half must not write what the
    bounds read (the second loop evaluates them after it), and the halves'
    iterations must move past each other (:func:`split_classes`)."""
    before, after = loop.body[:at], loop.body[at:]
    return not reads_written((loop.lo, loop.hi), before) and split_classes(loop.iter, before, after) is not None


class ParUnproven(Exception):
    """A ``par`` loop cannot run its iterations concurrently; the message says
    why (both execution engines record it and run the loop sequentially)."""


def par_write_classes(loop: N.For) -> Classes:
    """The one ``par``-legality rule both execution engines lower from.

    A ``pragma == "par"`` loop is *proven here*, not trusted: the frontend
    accepts ``for i in par(lo, hi)`` unchecked, so this is the proof
    ``parallelize_loop`` runs (:func:`split_classes` over the body),
    returning what it learnt about every buffer the body writes and does not
    allocate:

    * ``None`` — *shared*: distinct iterations write distinct cells, so
      concurrent chunks may write the buffer in place;
    * a list of write index lists — *reduce*: every access is ``+=`` and
      iterations may hit the same cell, so each worker needs a private
      accumulator combined afterwards.

    Raises :class:`ParUnproven` when the iterations do not provably commute,
    or when the body (a callee's included) touches configuration state, one
    unsynchronised store per run.  The engines supply only the *mechanism*
    for each class (privatised copies and an ordered combine in NumPy,
    ``reduction(+:…)`` clauses in C)."""
    if any(isinstance(a.buf, tuple) for a in accesses_of(loop.body)):
        raise ParUnproven("par body touches configuration state")
    classes = split_classes(loop.iter, loop.body, loop.body)
    if classes is None:
        raise ParUnproven("iterations do not provably commute")
    return classes


def body_depends_on_iter(stmts: Sequence[N.Stmt], it: Sym) -> bool:
    """Does the statement block read the loop iterator ``it`` anywhere?"""
    stmts = stmts if isinstance(stmts, list) else [stmts]
    return any(isinstance(n, N.Read) and n.name is it for s in stmts for n, _ in walk(s))


def is_idempotent(stmts) -> bool:
    """Is executing the statement block twice equivalent to executing it once?

    Sufficient condition: the block contains no reductions, and reads no
    location (buffer or configuration field) that it also writes (so
    re-execution recomputes the same values).
    """
    stmts = stmts if isinstance(stmts, list) else [stmts]
    accs = accesses_of(stmts)
    local = {a.name for a in collect_allocs(stmts)}
    written = {a.buf for a in accs if a.is_write() and a.buf not in local}
    for a in accs:
        if a.kind == "reduce" and a.buf not in local:
            return False
        if a.kind == "read" and a.buf in written:
            return False
    return True


def depends_on_allocs(stmts, allocs: Set[Sym]) -> bool:
    """Does the statement block access any buffer in ``allocs``?"""
    for a in accesses_of(stmts):
        if a.buf in allocs:
            return True
    return False
