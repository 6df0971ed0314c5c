"""Effect and dependence analysis.

Scheduling primitives justify their safety with questions like *do these two
statements commute?*, *do distinct iterations of this loop commute?*, or *is
this statement block idempotent?*.  This module answers those questions
conservatively (a ``False`` answer means "could not prove safe", not
"provably unsafe") using the linear analysis of :mod:`repro.analysis.linear`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir import nodes as N
from ..ir.build import collect_allocs, used_syms_expr, walk
from ..ir.syms import Sym
from .linear import FactEnv, LinearForm, linearize, prove

__all__ = [
    "Access",
    "accesses_of",
    "written_buffers",
    "read_buffers",
    "accesses_disjoint",
    "stmts_commute",
    "loop_iterations_commute",
    "ParUnproven",
    "par_env",
    "par_write_classes",
    "is_idempotent",
    "depends_on_allocs",
    "body_depends_on_iter",
]


@dataclass
class Access:
    """One access to a buffer.

    ``idx`` is the list of index expressions for an element access, or ``None``
    for whole-buffer accesses (window arguments, calls).
    """

    buf: Sym
    kind: str  # 'read' | 'write' | 'reduce'
    idx: Optional[List[N.Expr]]

    def is_write(self) -> bool:
        return self.kind in ("write", "reduce")


def _expr_accesses(e: N.Expr, out: List[Access]) -> None:
    for node, _ in walk(e):
        if isinstance(node, N.Read):
            out.append(Access(node.name, "read", list(node.idx)))
        elif isinstance(node, N.WindowExpr):
            out.append(Access(node.name, "read", None))
        elif isinstance(node, N.StrideExpr):
            out.append(Access(node.name, "read", None))


def accesses_of(stmts) -> List[Access]:
    """All buffer accesses performed by a statement or statement list."""
    stmts = stmts if isinstance(stmts, list) else [stmts]
    out: List[Access] = []

    def visit(s: N.Stmt) -> None:
        if isinstance(s, (N.Assign, N.Reduce)):
            for i in s.idx:
                _expr_accesses(i, out)
            _expr_accesses(s.rhs, out)
            out.append(Access(s.name, "write" if isinstance(s, N.Assign) else "reduce", list(s.idx)))
        elif isinstance(s, N.For):
            _expr_accesses(s.lo, out)
            _expr_accesses(s.hi, out)
            for b in s.body:
                visit(b)
        elif isinstance(s, N.If):
            _expr_accesses(s.cond, out)
            for b in s.body:
                visit(b)
            for b in s.orelse:
                visit(b)
        elif isinstance(s, N.Call):
            callee = s.proc
            callee_args = callee._root.args if hasattr(callee, "_root") else callee.args
            for arg_expr, fn_arg in zip(s.args, callee_args):
                if isinstance(arg_expr, (N.WindowExpr, N.Read)) and isinstance(
                    arg_expr, N.WindowExpr
                ):
                    out.append(Access(arg_expr.name, "read", None))
                    out.append(Access(arg_expr.name, "write", None))
                    for w in arg_expr.idx:
                        if isinstance(w, N.Interval):
                            _expr_accesses(w.lo, out)
                            _expr_accesses(w.hi, out)
                        else:
                            _expr_accesses(w.pt, out)
                elif isinstance(arg_expr, N.Read) and arg_expr.idx == [] and _is_tensor_arg(fn_arg):
                    out.append(Access(arg_expr.name, "read", None))
                    out.append(Access(arg_expr.name, "write", None))
                else:
                    _expr_accesses(arg_expr, out)
        elif isinstance(s, N.WindowStmt):
            out.append(Access(s.rhs.name, "read", None))
            out.append(Access(s.name, "write", None))
        elif isinstance(s, N.WriteConfig):
            _expr_accesses(s.rhs, out)
        elif isinstance(s, (N.Alloc, N.Pass)):
            pass

    for s in stmts:
        visit(s)
    return out


def _is_tensor_arg(fn_arg) -> bool:
    from ..ir.types import TensorType

    return isinstance(getattr(fn_arg, "typ", None), TensorType)


def written_buffers(stmts) -> Set[Sym]:
    return {a.buf for a in accesses_of(stmts) if a.is_write()}


def read_buffers(stmts) -> Set[Sym]:
    return {a.buf for a in accesses_of(stmts) if a.kind == "read" or a.kind == "reduce"}


def _config_writes(stmts, _depth: int = 0) -> Set[Tuple[object, str]]:
    stmts = stmts if isinstance(stmts, list) else [stmts]
    out = set()
    for s in stmts:
        for node, _ in walk(s):
            if isinstance(node, N.WriteConfig):
                out.add((id(node.config), node.field_name))
            if isinstance(node, N.Call) and _depth < 4:
                callee = node.proc
                body = callee._root.body if hasattr(callee, "_root") else getattr(callee, "body", [])
                out |= _config_writes(list(body), _depth + 1)
    return out


def _config_reads(stmts, _depth: int = 0) -> Set[Tuple[object, str]]:
    stmts = stmts if isinstance(stmts, list) else [stmts]
    out = set()
    for s in stmts:
        for node, _ in walk(s):
            if isinstance(node, N.ReadConfig):
                out.add((id(node.config), node.field_name))
            if isinstance(node, N.Call) and _depth < 4:
                callee = node.proc
                body = callee._root.body if hasattr(callee, "_root") else getattr(callee, "body", [])
                out |= _config_reads(list(body), _depth + 1)
    return out


def accesses_disjoint(a1: Access, a2: Access, env: FactEnv) -> bool:
    """Can we prove the two accesses touch disjoint elements?"""
    if a1.idx is None or a2.idx is None:
        return False
    if len(a1.idx) != len(a2.idx):
        return False
    from ..ir.types import bool_t

    for i1, i2 in zip(a1.idx, a2.idx):
        if prove(N.BinOp("!=", i1, i2, bool_t), env) is True:
            return True
    return False


def stmts_commute(s1, s2, env: Optional[FactEnv] = None) -> bool:
    """Can the two statements (or statement blocks) be reordered safely?"""
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

    # configuration-state conflicts
    cw1, cw2 = _config_writes(s1), _config_writes(s2)
    cr1, cr2 = _config_reads(s1), _config_reads(s2)
    if (cw1 & (cw2 | cr2)) or (cw2 & (cw1 | cr1)):
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


def _outer_accesses(loop: N.For) -> Dict[Sym, List[Access]]:
    """The loop body's accesses per buffer, minus buffers allocated inside the
    body (private to an iteration) and the iterator itself."""
    local = {a.name for a in collect_allocs(loop.body)}
    by_buf: Dict[Sym, List[Access]] = {}
    for a in accesses_of(loop.body):
        if a.buf not in local and a.buf is not loop.iter:
            by_buf.setdefault(a.buf, []).append(a)
    return by_buf


def _distinct_cells(lst: List[Access], it: Sym) -> bool:
    """Do the accesses share an index dimension that is the *same* affine
    function of ``it`` with a non-zero coefficient?  Distinct iterations then
    touch distinct elements."""
    if any(a.idx is None for a in lst):
        return False
    ndim = len(lst[0].idx)
    if any(len(a.idx) != ndim for a in lst):
        return False
    for d in range(ndim):
        forms = [linearize(a.idx[d]) for a in lst]
        if forms[0].coeff_of(it) != 0 and all(f == forms[0] for f in forms):
            return True
    return False


def _write_classes(loop: N.For) -> Optional[Dict[Sym, Optional[List[List[N.Expr]]]]]:
    """Per buffer the body writes and does not allocate: ``None`` when
    distinct iterations write distinct cells, else the write indices of a pure
    ``+=`` reduction.  ``None`` overall when neither holds for some buffer —
    the iterations then do not provably commute."""
    it = loop.iter
    # configuration writes: every iteration must write the same value (the
    # written expression cannot depend on the iterator), otherwise reordering
    # iterations changes what later reads observe
    for s in loop.body:
        for node, _ in walk(s):
            if isinstance(node, N.WriteConfig) and it in used_syms_expr(node.rhs):
                return None
    classes: Dict[Sym, Optional[List[List[N.Expr]]]] = {}
    for buf, lst in _outer_accesses(loop).items():
        writes = [a for a in lst if a.is_write()]
        if not writes:
            continue
        if _distinct_cells(lst, it):
            classes[buf] = None
        elif all(a.kind == "reduce" for a in lst):
            # additions commute, so the iteration order is unobservable (a
            # read of the same buffer would need the disjointness proof)
            classes[buf] = [a.idx for a in writes]
        else:
            return None
    return classes


def loop_iterations_commute(loop: N.For, env: Optional[FactEnv] = None) -> bool:
    """Do distinct iterations of ``loop`` commute (no loop-carried dependence)?

    Sufficient conditions checked, per written buffer:

    * every access is a reduction (reductions commute), or
    * every pair of accesses (with at least one write) shares an index
      dimension that is the *same* affine function of the iterator with a
      non-zero iterator coefficient — distinct iterations then touch distinct
      elements.
    Buffers allocated inside the loop body are private to an iteration and are
    ignored.  (Both conditions compare linear forms syntactically; ``env`` is
    what a caller knows about the enclosing scope, for proofs that need it.)
    """
    return _write_classes(loop) is not None


class ParUnproven(Exception):
    """A ``par`` loop cannot run its iterations concurrently; the message says
    why (both execution engines record it and run the loop sequentially)."""


def par_env(root: N.ProcDef, enclosing: Sequence[N.For]) -> FactEnv:
    """The facts at a loop nested in ``enclosing`` (outermost first): the
    root's preconditions plus each enclosing loop's bounds — what
    ``parallelize_loop`` proves under."""
    env = FactEnv.from_proc(root)
    for outer in enclosing:
        env = env.with_loop(outer.iter, outer.lo, outer.hi)
    return env


def par_write_classes(
    loop: N.For, env: Optional[FactEnv] = None
) -> Dict[Sym, Optional[List[List[N.Expr]]]]:
    """The one ``par``-legality rule both execution engines lower from.

    A ``pragma == "par"`` loop is *proven here*, not trusted: the frontend
    accepts ``for i in par(lo, hi)`` unchecked, so this is the proof
    ``parallelize_loop`` runs (:func:`loop_iterations_commute`; pass
    :func:`par_env`), returning what it learnt about every buffer the body
    writes and does not allocate:

    * ``None`` — *shared*: distinct iterations write distinct cells, so
      concurrent chunks may write the buffer in place;
    * a list of write index lists — *reduce*: every access is ``+=`` and
      iterations may hit the same cell, so each worker needs a private
      accumulator combined afterwards.

    Raises :class:`ParUnproven` when the iterations do not provably commute.
    The engines supply only the *mechanism* for each class (privatised copies
    and an ordered combine in NumPy, ``reduction(+:…)`` clauses in C)."""
    for s in loop.body:
        for node, _ in walk(s):
            if isinstance(node, (N.WriteConfig, N.ReadConfig)):
                # configuration state is one unsynchronised store per run
                raise ParUnproven("par body touches configuration state")
            if isinstance(node, (N.Assign, N.Reduce)) and node.name is loop.iter:
                raise ParUnproven("par loop writes its own iterator")
    classes = _write_classes(loop)
    if classes is None:
        raise ParUnproven("iterations do not provably commute")
    return classes


def body_depends_on_iter(stmts: Sequence[N.Stmt], it: Sym) -> bool:
    """Does the statement block read the loop iterator ``it`` anywhere?"""
    stmts = stmts if isinstance(stmts, list) else [stmts]
    for s in stmts:
        for node, _ in walk(s):
            if isinstance(node, N.Read) and node.name is it:
                return True
            if isinstance(node, (N.WindowExpr,)) and any(
                it in _syms_of_windowidx(w) for w in node.idx
            ):
                return True
    return False


def _syms_of_windowidx(w) -> Set[Sym]:
    if isinstance(w, N.Interval):
        return used_syms_expr(w.lo) | used_syms_expr(w.hi)
    return used_syms_expr(w.pt)


def is_idempotent(stmts) -> bool:
    """Is executing the statement block twice equivalent to executing it once?

    Sufficient condition: the block contains no reductions, and no assignment
    reads a buffer that the block also writes (so re-execution recomputes the
    same values).
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
    # configuration writes are idempotent as long as the values written do not
    # themselves depend on configuration state that the block overwrites
    if _config_writes(stmts) & _config_reads(stmts):
        return False
    return True


def depends_on_allocs(stmts, allocs: Set[Sym]) -> bool:
    """Does the statement block access any buffer in ``allocs``?"""
    for a in accesses_of(stmts):
        if a.buf in allocs:
            return True
    return False
