"""Backend-checked annotation primitives (Appendix A.7): ``set_memory``,
``set_precision``, ``parallelize_loop``, ``set_window``.

These primitives rewrite annotations; their consistency is re-checked by the
backend immediately before code generation (see :mod:`repro.backend.checks`).
"""

from __future__ import annotations

from ..analysis.effects import loop_iterations_commute
from ..cursors.cursor import ArgCursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import map_exprs, map_stmts, stmt_list_field_paths, with_fields
from ..ir.edit import EditSession
from ..ir.memories import Memory, memory_by_name
from ..ir.types import ScalarType, TensorType, scalar_type_from_name
from ._base import (
    require,
    scheduling_primitive,
    to_alloc_cursor,
    to_loop_cursor,
)

__all__ = ["set_memory", "set_precision", "parallelize_loop", "set_window"]


def _with_arg(root: N.ProcDef, idx: int, **changes) -> list:
    """``root.args`` with argument ``idx`` rebuilt."""
    args = list(root.args)
    args[idx] = with_fields(args[idx], **changes)
    return args


@scheduling_primitive
def set_memory(proc, buf, mem):
    """Change the memory space annotation of an allocation or argument."""
    if isinstance(mem, str):
        mem = memory_by_name(mem)
    require(isinstance(mem, Memory), "set_memory: expected a Memory")
    cur = to_alloc_cursor(proc, buf)
    session = EditSession(proc)
    if isinstance(cur, ArgCursor):
        session.set_field((), "args", _with_arg(proc._root, cur._idx, mem=mem))
    else:
        sym = cur.buf_sym()

        def fix(s):
            return with_fields(s, mem=mem) if isinstance(s, N.Alloc) and s.name is sym else s

        session.set_field((), "body", map_stmts(proc._root.body, fix))
    return session.finish()


@scheduling_primitive
def set_precision(proc, buf, precision):
    """Change the scalar precision of a buffer or argument."""
    if isinstance(precision, str):
        precision = scalar_type_from_name(precision)
    require(
        isinstance(precision, ScalarType) and precision.is_numeric,
        "set_precision: expected a numeric scalar type",
    )
    cur = to_alloc_cursor(proc, buf)
    root = proc._root

    def retype(t):
        if isinstance(t, TensorType):
            return TensorType(precision, t.shape, t.is_window)
        return precision

    changes = {}
    if isinstance(cur, ArgCursor):
        typ = root.args[cur._idx].typ
        if typ.basetype() != precision:
            changes["args"] = _with_arg(root, cur._idx, typ=retype(typ))
        sym = cur.sym()
    else:
        sym = cur.buf_sym()

    # the buffer and every window over it (a window's list comes no later
    # than its windows')
    views = {sym}
    for _path, _attr, stmts in stmt_list_field_paths(root):
        views.update(s.name for s in stmts if isinstance(s, N.WindowStmt) and s.rhs.name in views)

    # the declaration, the window expressions and the reads of those: every
    # other type is derived from them (see repro.ir.nodes)
    def fix_expr(e):
        if isinstance(e, (N.Read, N.WindowExpr)) and e.name in views and e.typ.basetype() != precision:
            return with_fields(e, typ=retype(e.typ))
        return e

    def fix_stmt(s):
        if isinstance(s, N.Alloc) and s.name is sym and s.typ.basetype() != precision:
            return with_fields(s, typ=retype(s.typ))
        return s

    body = map_stmts(map_exprs(root.body, fix_expr), fix_stmt)
    if body is root.body and not changes:
        return proc  # already at ``precision``: no new version
    changes["body"] = body
    session = EditSession(proc)
    session.set_root(with_fields(root, **changes))
    return session.finish()


@scheduling_primitive
def parallelize_loop(proc, loop):
    """Annotate a loop as parallel (checked: no cross-iteration RAW/WAW).

    The check (:func:`~repro.analysis.effects.loop_iterations_commute`)
    admits both *maps* (iterations write disjoint elements) and *pure
    reductions* (every access to a shared target is ``+=``, which commutes).
    The execution engines honour the annotation accordingly: maps run with
    shared buffers, reduction targets are privatized — per-chunk accumulators
    combined in a deterministic order in the compiled NumPy engine
    (:mod:`repro.interp.parallel`), OpenMP ``reduction(...)`` clauses in the
    C backend.  Loops whose bodies defeat that routing (e.g. unanalyzable
    whole-buffer writes) still execute, sequentially, with a
    ``par-unlowerable`` fallback event."""
    loop = to_loop_cursor(proc, loop)
    node = loop._node()
    require(
        loop_iterations_commute(node),
        "parallelize_loop: loop iterations carry dependencies",
    )
    session = EditSession(proc)
    session.set_field(loop._path, "pragma", "par")
    return session.finish()


@scheduling_primitive
def set_window(proc, buf, is_window: bool = True):
    """Change a tensor argument between dense and window calling convention."""
    cur = to_alloc_cursor(proc, buf)
    require(isinstance(cur, ArgCursor), "set_window: only arguments can be windowed")
    typ = cur.typ()
    require(isinstance(typ, TensorType), "set_window: expected a tensor argument")
    session = EditSession(proc)
    retyped = TensorType(typ.base, typ.shape, bool(is_window))
    session.set_field((), "args", _with_arg(proc._root, cur._idx, typ=retyped))
    return session.finish()
