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
``par_write_classes``, ``fission``, ``fuse`` and the NumPy engine's loop fold
(:func:`lockstep_conflict`) all ask it.  The rule reads a buffer through the
procedure's window aliases (:func:`window_bases`): a window is its base
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..ir import nodes as N
from ..ir.build import collect_allocs, structurally_equal, used_syms_expr, walk
from ..ir.syms import Sym
from .linear import FactEnv, LinearForm, const_value, linearize, prove

__all__ = [
    "Access",
    "accesses_of",
    "exposed_reads",
    "written_buffers",
    "written_arguments",
    "window_bases",
    "read_buffers",
    "accesses_disjoint",
    "distinct_cells",
    "stmts_commute",
    "split_classes",
    "lockstep_conflict",
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
    """Append the accesses of ``e`` in pre-order (``walk``'s order, without
    its paths)."""
    if isinstance(e, N.Read):
        out.append(Access(e.name, "read", e.idx))
    elif isinstance(e, (N.WindowExpr, N.StrideExpr)):
        out.append(Access(e.name, "read", None))
    elif isinstance(e, N.ReadConfig):
        out.append(Access((e.config, e.field_name), "read", None))
    for attr, is_list in N.child_fields(e):
        child = getattr(e, attr)
        for c in child if is_list else (child,):
            if c is not None:
                _expr_accesses(c, out)


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
        lo, hi = const_value(s.lo), const_value(s.hi)
        if lo is None or hi is None or lo < hi:  # a body that never runs accesses nothing
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


def window_bases(root: N.ProcDef) -> Mapping[Sym, Sym]:
    """Window name -> the buffer it views (a window of a window resolved to
    the buffer), over every ``WindowStmt`` of ``root``.  Memoised on the
    root."""
    return N.memo(root, "_window_bases", _window_bases)


def _window_bases(root: N.ProcDef) -> Dict[Sym, Sym]:
    bases: Dict[Sym, Sym] = {}

    def visit(stmts) -> None:  # a window is defined before a window of it
        for s in stmts:
            if isinstance(s, N.WindowStmt):
                bases[s.name] = bases.get(s.rhs.name, s.rhs.name)
            elif isinstance(s, (N.For, N.If)):
                visit(s.body)
                visit(getattr(s, "orelse", ()))

    visit(root.body)
    return bases


def written_arguments(root: N.ProcDef) -> FrozenSet[Sym]:
    """The tensor arguments ``root`` may store into: assigned or reduced
    directly, through a window alias, or passed to a callee parameter that is
    itself written.  Unlike :func:`written_buffers`, a call counts only the
    parameters its callee writes (a vector load does not write its source).
    Memoised on the root."""
    return N.memo(root, "_written_args_cache", _written_arguments)


def _written_arguments(root: N.ProcDef) -> FrozenSet[Sym]:
    bases = window_bases(root)
    written: Set[Sym] = set()

    def visit(stmts) -> None:
        for s in stmts:
            if isinstance(s, (N.Assign, N.Reduce)):
                written.add(bases.get(s.name, s.name))
            elif isinstance(s, N.Call):
                callee = s.proc._root
                inner = written_arguments(callee)
                for fa, actual in zip(callee.args, s.args):
                    if fa.name in inner and isinstance(actual, (N.Read, N.WindowExpr)):
                        written.add(bases.get(actual.name, actual.name))
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
    for s in body:
        names, loops, _allocs = _bindings(s)
        varying |= names
        for loop in loops:
            env = env.with_loop(loop.iter, loop.lo, loop.hi)
    return varying, env


def _bindings(s: N.Stmt) -> Tuple[FrozenSet[Sym], Tuple[N.For, ...], FrozenSet[Sym]]:
    """What ``s`` binds or writes, the loops in it (program order) and the
    buffers it allocates, memoised on the statement."""
    return N.memo(s, "_bindings", _summarise_bindings)


def _summarise_bindings(s: N.Stmt) -> Tuple[FrozenSet[Sym], Tuple[N.For, ...], FrozenSet[Sym]]:
    names: Set[Sym] = set()
    loops: List[N.For] = []
    allocs: Set[Sym] = set()
    if isinstance(s, N.For):
        names.add(s.iter)
        loops.append(s)
    elif isinstance(s, (N.Assign, N.Reduce, N.Alloc, N.WindowStmt)):
        names.add(s.name)
        if isinstance(s, N.Alloc):
            allocs.add(s.name)
    for child in s.body + s.orelse if isinstance(s, N.If) else s.body if isinstance(s, N.For) else ():
        inner = _bindings(child)
        names |= inner[0]
        loops += inner[1]
        allocs |= inner[2]
    return frozenset(names), tuple(loops), frozenset(allocs)


def distinct_cells(lst: List[Access], it: Sym, body: Sequence[N.Stmt], facts: Optional[list] = None) -> bool:
    """Do distinct iterations of the loop over ``body`` touch distinct cells
    in every pair of the accesses (to one buffer) that involves a write, an
    access with itself included?  A pair is apart on an index dimension
    ``c * it + rest`` in both, with one non-zero ``c``, rests that differ only
    in constants and in what moves within an iteration, and the two rests
    spanning less than ``|c|`` (``6 * io + ii`` with ``ii`` in ``[0, 6)``;
    ``2 * i`` with ``2 * i + 1``).  ``facts`` caches ``body``'s loop facts."""
    if any(a.idx is None for a in lst):
        return False
    facts = [] if facts is None else facts
    rows: Dict[Tuple, bool] = {}  # the accesses' per-dimension forms -> written?
    for a in lst:
        key = tuple(_cell_form(e, it, body, facts) for e in a.idx)
        rows[key] = rows.get(key, False) or a.is_write()
    pairs = list(rows.items())
    for k, (x, x_writes) in enumerate(pairs):
        for y, y_writes in pairs[k:]:
            if (x_writes or y_writes) and not any(_apart(dx, dy) for dx, dy in zip(x, y)):
                return False
    return True


def _cell_form(e: N.Expr, it: Sym, body, facts) -> Optional[Tuple[int, LinearForm, int, int]]:
    """``(c, invariant rest, lo, hi)`` of an index ``c * it + invariant rest +
    moving rest``, the last two numbers the range of the moving rest (its
    constant included) within one iteration; ``None`` when ``c`` is zero, a
    term other than ``c * it`` reads ``it`` (``i % 2``), or the moving rest
    is unbounded."""
    form = linearize(e)
    c = form.coeff_of(it)
    if c == 0:
        return None
    if not facts:
        facts.append(_iteration_facts(body))
    varying, env = facts[0]
    moving, fixed = {}, {}
    for key, coeff in form.terms.items():
        if key == (it,):
            continue
        syms = {s for a in key for s in ({a} if isinstance(a, Sym) else used_syms_expr(a.expr))}
        if it in syms:
            return None
        (moving if not key or syms & varying else fixed)[key] = coeff
    lo, hi = env.interval(LinearForm(moving))
    if lo is None or hi is None:
        return None
    return c, LinearForm(fixed), lo, hi


def _apart(x, y) -> bool:
    return (
        x is not None
        and y is not None
        and x[:2] == y[:2]
        and max(x[3], y[3]) - min(x[2], y[2]) < abs(x[0])
    )


Classes = Dict[Sym, Optional[List[List[N.Expr]]]]


def split_classes(it: Sym, first: Sequence[N.Stmt], second: Sequence[N.Stmt], root: N.ProcDef) -> Optional[Classes]:
    """The one rule for moving iterations of a loop over ``it`` past each
    other: can every iteration of ``second`` run before or after every other
    iteration of ``first``?  ``first is second`` asks whether the iterations
    of that body commute; two halves ask whether ``for it: first; second`` is
    ``for it: first`` followed by ``for it: second`` (fission, and fuse the
    other way round).  ``root`` is the procedure the statements belong to.

    Decided per location that one side writes and the other accesses, minus
    the iterator and the buffers a body allocates (private to an iteration).
    A buffer is its base buffer through ``root``'s window aliases
    (:func:`window_bases`):

    * a buffer passes when it is accessed under one name and every pair of
      its accesses is told apart by an index dimension
      (:func:`distinct_cells`; class ``None``, *shared*), or when every
      access is ``+=`` (additions commute; class: the write indices per name
      it is written under, *reduce*) -- a written buffer accessed under two
      names passes only so;
    * a configuration field passes when no side exposes a read of it
      (:func:`exposed_reads`), and every write of it is a ``WriteConfig`` of
      the sides (not a callee's) of one value, which reads neither ``it``
      nor anything the sides bind or write: each iteration then reads only
      what it wrote itself, and the field ends the same in any order.

    Returns the classes of the buffers, or ``None`` when some location fails.
    The proof reads only the statements and the window aliases: it compares
    index forms, and bounds the loops nested in them by their own bounds."""
    return _split(it, first, second, root)[0]


def _split(it: Sym, first, second, root: N.ProcDef) -> Tuple[Optional[Classes], object]:
    """:func:`split_classes`' classes, or ``None`` and the first location, in
    program order, that fails."""
    bases = window_bases(root)
    if first is second:
        halves, body, local = (first,), first, {a for s in first for a in _bindings(s)[2]}
    else:  # what one half allocates, the other cannot see
        halves, body, local = (first, second), list(first) + list(second), set()
    by_loc: Dict[object, List[Access]] = {}
    sides: Dict[object, int] = {}
    facts: list = []
    for side, half in enumerate(halves):
        for a in accesses_of(half):
            loc = bases.get(a.buf, a.buf)
            if loc not in local and a.buf is not it:
                by_loc.setdefault(loc, []).append(a)
                sides[loc] = sides.get(loc, 0) | 1 << side
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
                return None, loc
        elif len({a.buf for a in lst}) == 1 and distinct_cells(lst, it, body, facts):
            classes[lst[0].buf] = None
        elif all(a.kind == "reduce" for a in lst):
            # additions commute, so the iteration order is unobservable (a
            # read of the same buffer would need the disjointness proof)
            for a in writes:
                classes.setdefault(a.buf, []).append(a.idx)
        else:
            return None, loc
    return classes, None


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


def loop_iterations_commute(loop: N.For, root: N.ProcDef) -> bool:
    """Do distinct iterations of ``loop`` (in ``root``) commute (no
    loop-carried dependence)?  :func:`split_classes` with both sides the
    body."""
    return split_classes(loop.iter, loop.body, loop.body, root) is not None


def lockstep_conflict(loop: N.For, root: N.ProcDef) -> object:
    """The first location, in program order, that keeps the iterations of
    ``loop`` from running in lockstep (the NumPy fold: each statement once,
    over all of them), or ``None``.  They must commute
    (:func:`split_classes`), and a ``+=`` whose cell moves with the iterator
    must not meet itself (one whole-array ``+=`` adds once per cell)."""
    classes, failed = _split(loop.iter, loop.body, loop.body, root)
    for name, cells in (classes or {}).items():
        for idx in cells or ():
            moves = any(loop.iter in used_syms_expr(e) for e in idx)
            if moves and not distinct_cells([Access(name, "reduce", idx)], loop.iter, loop.body):
                return window_bases(root).get(name, name)
    return failed


def reads_written(exprs: Sequence[N.Expr], stmts: Sequence[N.Stmt], root: N.ProcDef) -> bool:
    """Does any of ``exprs`` read a location (buffer or configuration field)
    that ``stmts`` may write, a window being its base buffer in ``root``?"""
    bases = window_bases(root)
    reads = {bases.get(a.buf, a.buf) for e in exprs for a in _expr_reads(e)}
    return any(a.is_write() and bases.get(a.buf, a.buf) in reads for a in accesses_of(stmts))


def loop_splits(loop: N.For, at: int, root: N.ProcDef) -> bool:
    """Is ``loop`` (in ``root``) the same as one loop over its first ``at``
    statements followed by one over the rest?  The first half must not write
    what the bounds read (the second loop evaluates them after it), and the
    halves' iterations must move past each other (:func:`split_classes`)."""
    before, after = loop.body[:at], loop.body[at:]
    return not reads_written((loop.lo, loop.hi), before, root) and split_classes(loop.iter, before, after, root) is not None


class ParUnproven(Exception):
    """A ``par`` loop cannot run its iterations concurrently; the message says
    why (both execution engines record it and run the loop sequentially)."""


def par_write_classes(loop: N.For, root: N.ProcDef) -> Classes:
    """The one ``par``-legality rule both execution engines lower from.

    A ``pragma == "par"`` loop is *proven here*, not trusted: the frontend
    accepts ``for i in par(lo, hi)`` unchecked, so this is the proof
    ``parallelize_loop`` runs (:func:`split_classes` over the body, in the
    procedure ``root``), returning what it learnt about every buffer the body
    writes and does not allocate:

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
    classes = split_classes(loop.iter, loop.body, loop.body, root)
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
