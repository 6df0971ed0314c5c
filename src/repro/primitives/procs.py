"""Multi-procedure primitives (Appendix A.4) and small structural helpers:
``rename``, ``inline``, ``call_eqv``, ``extract_subproc``, ``add_assertion``,
``insert_pass``, ``delete_pass``.  (``replace`` lives in
:mod:`repro.primitives.unify`.)"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cursors.cursor import CallCursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import (
    alpha_rename_stmts,
    collect_syms_read,
    collect_syms_written,
    get_node,
    stmt_list_field_paths,
    walk,
)
from ..ir.edit import EditSession
from ..ir.printing import expr_str, procedure_digest
from ..ir.syms import Sym
from ..ir.types import TensorType, index_t
from ._base import (
    require,
    scheduling_primitive,
    to_block_cursor,
    to_gap_cursor,
    to_stmt_cursor,
)

__all__ = [
    "rename",
    "inline",
    "call_eqv",
    "extract_subproc",
    "add_assertion",
    "insert_pass",
    "delete_pass",
]


@scheduling_primitive
def rename(proc, new_name: str):
    """Rename a procedure."""
    session = EditSession(proc)
    session.set_field((), "name", new_name)
    return session.finish()


@scheduling_primitive
def add_assertion(proc, cond):
    """Add an assertion about the procedure's arguments (a string in the
    object syntax, e.g. ``"N % 8 == 0"``, or an expression node)."""
    return proc.add_assertion(cond if isinstance(cond, str) else expr_str(cond))


@scheduling_primitive
def insert_pass(proc, gap):
    """Insert a ``pass`` statement at a gap."""
    gap = to_gap_cursor(proc, gap)
    session = EditSession(proc)
    session.insert_stmts(gap, [N.Pass()])
    return session.finish()


@scheduling_primitive
def delete_pass(proc):
    """Delete every ``pass`` statement that is not the sole statement of its block."""
    # all deletions are recorded in one transactional session, so the caller
    # gets a single derived version with the composed forwarding function
    session = EditSession(proc)
    while True:
        target = None
        for owner, attr, stmts in stmt_list_field_paths(session.root):
            if len(stmts) <= 1:
                continue
            for i, s in enumerate(stmts):
                if isinstance(s, N.Pass):
                    target = (owner, attr, i)
                    break
            if target:
                break
        if target is None:
            break
        owner, attr, i = target
        session.delete((owner, attr, i, i + 1))
    if session.edit_count() == 0:
        return proc
    return session.finish()


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------


@scheduling_primitive
def inline(proc, call):
    """Inline a call site, substituting the callee's body.

    The argument-substitution core (symbol renaming plus window/affine index
    composition) is shared with the compiled execution engine's
    cross-procedure inliner — see
    :func:`repro.backend.lowering.substitute_call_body`, and so is the rule
    that keeps a scalar argument passed by value
    (:func:`repro.backend.lowering.by_value_refusal`).
    """
    from ..backend.lowering import InlineError, by_value_refusal, substitute_call_body

    c = to_stmt_cursor(proc, call, kinds=CallCursor)
    call_node = c._node()
    callee = call_node.proc
    cdef = callee._root

    body = alpha_rename_stmts(cdef.body)
    try:
        body = substitute_call_body(cdef.args, call_node.args, body)
    except InlineError as exc:
        raise SchedulingError(f"inline: {exc}") from None
    refusal = by_value_refusal(cdef.args, call_node.args, proc._root)
    if refusal is not None:
        raise SchedulingError(f"inline: {refusal}")

    session = EditSession(proc)
    session.replace(c, body)
    return session.finish()


# ---------------------------------------------------------------------------
# call_eqv
# ---------------------------------------------------------------------------


def _lineage_digest(procedure) -> str:
    return procedure_digest(procedure._lineage()[-1]._root)


@scheduling_primitive
def call_eqv(proc, orig, new_proc):
    """Replace a call to ``orig`` with a call to the equivalent procedure
    ``new_proc`` (both must be scheduled from the same original procedure).
    Procedures are compared by identity (:func:`procedure_digest`), so a call
    to another parse of ``orig`` is a call to ``orig``."""
    require(
        _lineage_digest(orig) == _lineage_digest(new_proc),
        "call_eqv: the two procedures do not share a scheduling lineage",
    )
    require(
        len(orig._root.args) == len(new_proc._root.args),
        "call_eqv: the replacement procedure has a different signature",
    )
    # find the first call to `orig`
    want = procedure_digest(orig._root)
    target = None
    for node, path in walk(proc._root):
        if isinstance(node, N.Call) and procedure_digest(node.proc._root) == want:
            target = path
            break
    if target is None:
        raise SchedulingError(f"call_eqv: no call to {orig.name()!r} found")
    call_node = get_node(proc._root, target)
    new_call = N.Call(new_proc, call_node.args)
    owner, (attr, idx) = target[:-1], target[-1]
    session = EditSession(proc)
    session.replace((owner, attr, idx, idx + 1), [new_call])
    return session.finish()


# ---------------------------------------------------------------------------
# extract_subproc
# ---------------------------------------------------------------------------


@scheduling_primitive
def extract_subproc(proc, block, name: str):
    """Extract a statement block into a new procedure and replace it with a
    call.  Returns ``(new_proc, subproc)``."""
    from ..core.procedure import Procedure

    block = to_block_cursor(proc, block)
    stmts = block._stmts()

    # free symbols of the block
    local = {a.name for a in _local_allocs(stmts)}
    bound_iters = _bound_iters(stmts)
    free = (collect_syms_read(list(stmts)) | collect_syms_written(list(stmts))) - local - bound_iters

    # argument metadata from the enclosing procedure
    types: Dict[Sym, Tuple[object, object]] = {}
    for a in proc._root.args:
        types[a.name] = (a.typ, a.mem)
    for n, _ in walk(proc._root):
        if isinstance(n, N.Alloc):
            types[n.name] = (n.typ, n.mem)
        if isinstance(n, N.For):
            types[n.iter] = (index_t, None)

    args: List[N.FnArg] = []
    ordered = [s for s in types if s in free] + [s for s in free if s not in types]
    for s in ordered:
        typ, mem = types.get(s, (index_t, None))
        if isinstance(typ, TensorType):
            typ = typ.as_window() if not typ.is_window else typ
        args.append(N.FnArg(s, typ, mem))

    sub_def = N.ProcDef(name, args, [], list(stmts), None)
    subproc = Procedure(sub_def)

    call_args: List[N.Expr] = []
    for a in args:
        if isinstance(a.typ, TensorType):
            call_args.append(N.Read(a.name, [], a.typ))
        else:
            call_args.append(N.Read(a.name, [], a.typ))
    call = N.Call(subproc, call_args)

    session = EditSession(proc)
    session.replace(block, [call], lambda off, rest: (0, ()))
    return session.finish(), subproc


def _local_allocs(stmts):
    from ..ir.build import collect_allocs

    return collect_allocs(list(stmts))


def _bound_iters(stmts):
    out = set()
    for s in stmts:
        for n, _ in walk(s):
            if isinstance(n, N.For):
                out.add(n.iter)
    return out
