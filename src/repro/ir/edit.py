"""The unified transactional IR edit engine.

Scheduling primitives used to implement each transformation twice: once as
tree surgery (``replace_stmts`` / ``set_node`` calls) and once as a
hand-constructed :class:`~repro.cursors.forwarding.EditTrace` describing the
same surgery for cursor forwarding.  The two could silently drift apart.

:class:`EditSession` centralises both halves.  A session is opened from a
:class:`~repro.core.procedure.Procedure`; every operation records an *atomic
edit* object (see :mod:`repro.cursors.forwarding`) and applies it eagerly to
the session's working tree, and :meth:`EditSession.finish` atomically derives
the successor procedure — the rewritten root *and* the composed forwarding
function come from the same edit objects, so forwarding correctness is a
property of the engine rather than of every call site.

Operations address locations with *cursor coordinates*: either a cursor
object bound to the session's base procedure (forwarded through the edits
recorded so far, so cursors stay usable mid-session) or a raw coordinate
tuple in the *current* working tree:

* block — ``(owner_path, attr, lo, hi)`` or a :class:`BlockCursor` /
  :class:`StmtCursor`
* gap — ``(owner_path, attr, idx)`` or a :class:`GapCursor`
* expression — an :class:`ExprCursor`

Typical primitive::

    def my_primitive(proc, stmt):
        cur = to_stmt_cursor(proc, stmt)
        ...safety checks...
        s = EditSession(proc)
        s.replace(cur, [new_stmt], inner_map)
        return s.finish()
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .. import obs
from ..cursors.cursor import BlockCursor, ExprCursor, GapCursor, StmtCursor
from ..cursors.forwarding import (
    BlockRewrite,
    EditTrace,
    ExprEdit,
    FieldEdit,
    MoveEdit,
    RootEdit,
)
from ..errors import InvalidCursorError
from . import nodes as nodes_mod
from .build import Path, get_node

__all__ = ["EditSession"]


class EditSession:
    """A transactional sequence of atomic edits on one procedure version.

    Open a session with ``EditSession(proc)``, record edits with the
    operations below, and call :meth:`finish` once to obtain the derived
    :class:`Procedure`.  A session must not be reused after ``finish``.
    """

    def __init__(self, proc):
        self._proc = proc
        self._root = proc._root
        self._trace = EditTrace()
        self._finished = False

    # -- working-tree access ---------------------------------------------------

    @property
    def root(self):
        """The current working tree (reflects all edits recorded so far)."""
        return self._root

    def edit_count(self) -> int:
        return len(self._trace)

    # -- coordinate resolution -------------------------------------------------

    def _forward_desc(self, desc):
        for e in self._trace.edits:
            if desc is None:
                break
            desc = e.forward(desc)
        return desc

    def _cursor_desc(self, cursor):
        if cursor._proc is not self._proc:
            cursor = self._proc.forward(cursor)
        desc = self._cursor_descriptor(cursor)
        out = self._forward_desc(desc)
        if out is None:
            raise InvalidCursorError("cursor was invalidated by an earlier edit in this session")
        return out

    @staticmethod
    def _cursor_descriptor(cursor):
        desc = cursor._descriptor()
        if desc is None:
            raise InvalidCursorError("cannot edit through an invalid cursor")
        return desc

    def _block_coords(self, block) -> Tuple[Path, str, int, int]:
        """Coerce ``block`` to ``(owner_path, attr, lo, hi)`` in the current
        working tree."""
        if isinstance(block, StmtCursor):
            block = block.as_block()
        if isinstance(block, BlockCursor):  # forwarding keeps a descriptor's kind
            _, owner, attr, lo, hi = self._cursor_desc(block)
            return tuple(owner), attr, lo, hi
        owner, attr, lo, hi = block
        return tuple(owner), attr, lo, hi

    def _gap_coords(self, gap) -> Tuple[Path, str, int]:
        """Coerce ``gap`` to ``(owner_path, attr, idx)`` in the current
        working tree."""
        if isinstance(gap, GapCursor):
            _, owner, attr, idx = self._cursor_desc(gap)
            return tuple(owner), attr, idx
        owner, attr, idx = gap
        return tuple(owner), attr, idx

    def _expr_path(self, expr: ExprCursor) -> Path:
        return tuple(self._cursor_desc(expr)[1])

    # -- atomic-edit operations ------------------------------------------------

    def insert_stmts(self, gap, stmts: Sequence) -> None:
        """Insert ``stmts`` at a gap."""
        owner, attr, idx = self._gap_coords(gap)
        self._record(BlockRewrite(owner, attr, idx, 0, len(stmts), None, new_stmts=list(stmts)))

    def delete(self, block) -> None:
        """Delete a statement block."""
        owner, attr, lo, hi = self._block_coords(block)
        self._record(BlockRewrite(owner, attr, lo, hi - lo, 0, None, new_stmts=[]))

    def replace(self, block, stmts: Sequence, inner_map=None) -> None:
        """Replace a statement block with ``stmts``.

        ``inner_map(offset, rest)`` optionally forwards cursor locations that
        were inside the replaced range (see
        :class:`~repro.cursors.forwarding.BlockRewrite`).
        """
        owner, attr, lo, hi = self._block_coords(block)
        self._record(
            BlockRewrite(owner, attr, lo, hi - lo, len(stmts), inner_map, new_stmts=list(stmts))
        )

    def wrap(self, block, make_wrapper: Callable[[List], object], inner_map=None) -> None:
        """Wrap a statement block in a single new statement.

        ``make_wrapper`` receives the block's statements (a fresh list of the
        shared nodes) and returns the wrapping statement (e.g. a new loop or
        guard).  By default cursors
        into the old block forward into the wrapper's ``body`` at the same
        offset; pass ``inner_map`` when the wrapper nests them deeper.
        """
        owner, attr, lo, hi = self._block_coords(block)
        parent = get_node(self._root, owner)
        wrapper = make_wrapper(getattr(parent, attr)[lo:hi])
        if inner_map is None:
            def inner_map(offset, rest):
                return (0, (("body", offset),) + tuple(rest))
        self._record(BlockRewrite(owner, attr, lo, hi - lo, 1, inner_map, new_stmts=[wrapper]))

    def move(self, block, gap) -> None:
        """Move a statement block to a destination gap.

        The destination gap's coordinates are interpreted in the tree *after*
        removal of the source statements (raw tuples must be given in that
        frame; this matches how the edit is both applied and forwarded).
        """
        owner, attr, lo, hi = self._block_coords(block)
        dst_owner, dst_attr, dst_idx = self._gap_coords(gap)
        self._record(MoveEdit(owner, attr, lo, hi - lo, dst_owner, dst_attr, dst_idx))

    def replace_expr(self, expr_cursor, new_expr) -> None:
        """Replace the expression at ``expr_cursor`` with ``new_expr``."""
        path = self._expr_path(expr_cursor)
        self._record(ExprEdit(path, new_expr))

    def set_field(self, path: Path, attr: str, value) -> None:
        """Set a field of the node at ``path`` (the procedure root when
        ``path`` is empty).  For non-structural annotations (``pragma``,
        ``mem``, ``typ``) or wholesale body swaps whose forwarding is the
        identity."""
        self._record(FieldEdit(tuple(path), attr, value))

    def set_root(self, new_root) -> None:
        """Replace the working tree with ``new_root`` as one atomic edit.

        For rewrites that touch many places at once (access re-indexing,
        simplification, …).  ``new_root`` is built like any other edit's
        result: new nodes along the touched paths, every other subtree
        shared with the current tree.  Cursors forward by the identity
        heuristic."""
        self._record(RootEdit(new_root))

    def _record(self, edit) -> None:
        if self._finished:
            raise RuntimeError("EditSession already finished")
        self._root = edit.apply(self._root)
        self._trace.add(edit)

    # -- transaction end -------------------------------------------------------

    def finish(self):
        """Derive the successor procedure from the recorded edits.

        Returns the new :class:`Procedure`, whose provenance carries the
        composed forwarding function and the finished edit trace; the number
        of atomic edits is reported to the rewrite counter (Figure 9b
        metrics)."""
        if self._finished:
            raise RuntimeError("EditSession already finished")
        self._finished = True
        obs.atomic_edits(len(self._trace))
        # stamp the derived root's lineage epoch: parent's epoch + the atomic
        # edits this session recorded.  Per-procedure, so concurrent edits of
        # unrelated procedures never observe each other (see ir.nodes).
        if self._root is not self._proc._root:
            nodes_mod.set_edit_epoch(
                self._root, nodes_mod.edit_epoch(self._proc._root) + len(self._trace)
            )
        return self._proc._derive(self._root, self._trace.forward_fn(), edit_trace=self._trace)
