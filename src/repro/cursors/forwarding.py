"""Atomic edits and cursor forwarding.

Every scheduling primitive decomposes its effect on the AST into a sequence of
*atomic edits* (Section 5.2 of the paper): insertion, deletion, replacement,
movement, and wrapping of statement ranges.  Each atomic edit carries **both**
halves of the transformation:

* ``apply(root)`` — produce the rewritten tree (functional update, sharing
  unchanged subtrees), and
* ``forward(desc)`` — the canonical forwarding function mapping cursor
  locations in the pre-edit tree to locations in the post-edit tree (or
  invalidating them).

Deriving both from the same edit object is what keeps the rewritten AST and
the forwarding semantics from drifting apart.  The forwarding function of a
primitive is the composition of its atomic edits' functions, and
``Procedure.forward`` composes those across the whole provenance chain.

Atomic edits are **not** constructed by scheduling primitives directly;
they are recorded by :class:`repro.ir.edit.EditSession`, the transactional
edit engine every primitive goes through.

Cursor locations are normalised to *descriptors*:

* ``("node", path)`` — statement or expression cursors
* ``("block", owner_path, attr, lo, hi)`` — statement-block cursors
* ``("gap", owner_path, attr, idx)`` — gap cursors (before statement ``idx``)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..ir.build import Path, get_node, replace_stmts, set_node, with_fields

__all__ = [
    "BlockRewrite",
    "MoveEdit",
    "ExprEdit",
    "FieldEdit",
    "RootEdit",
    "EditTrace",
    "identity_forward",
]


Desc = Tuple  # descriptor tuples as documented above

InnerMap = Callable[[int, Path], Optional[Tuple[int, Path]]]


def identity_forward(desc: Desc) -> Desc:
    return desc


@dataclass
class BlockRewrite:
    """Replace ``n_old`` statements at ``lo`` of a statement list with
    ``n_new`` new statements.

    ``inner_map(offset, rest)`` optionally maps locations inside the replaced
    range (``offset`` relative to ``lo``, ``rest`` the remaining path below
    that statement) to their new location ``(new_offset, new_rest)``; returning
    ``None`` invalidates the cursor.  When no ``inner_map`` is given, cursors
    inside the range survive only if the range length is unchanged (the
    "replacement in place" heuristic from the paper).
    """

    owner_path: Path
    attr: str
    lo: int
    n_old: int
    n_new: int
    inner_map: Optional[InnerMap] = None
    new_stmts: Optional[List] = None

    def apply(self, root):
        """Apply this rewrite to ``root``, returning the new tree."""
        return replace_stmts(root, self.owner_path, self.attr, self.lo, self.n_old, self.new_stmts)

    def _delta(self) -> int:
        return self.n_new - self.n_old

    def _map_inner(self, offset: int, rest: Path):
        if self.inner_map is not None:
            return self.inner_map(offset, rest)
        if self.n_old == self.n_new:
            return (offset, rest)
        return None

    def forward(self, desc: Desc) -> Optional[Desc]:
        kind = desc[0]
        if kind == "node":
            return self._forward_node(desc)
        if kind == "block":
            return self._forward_block(desc)
        if kind == "gap":
            return self._forward_gap(desc)
        return desc

    # -- helpers ---------------------------------------------------------------

    def _through(self, path: Path):
        """If ``path`` passes through the edited statement list, split it into
        (index in list, rest); otherwise return None."""
        k = len(self.owner_path)
        if len(path) <= k:
            return None
        if tuple(path[:k]) != tuple(self.owner_path):
            return None
        attr, idx = path[k]
        if attr != self.attr or idx is None:
            return None
        return idx, tuple(path[k + 1 :])

    def _inside(self, path: Path) -> bool:
        """``path`` leads into one of the replaced statements."""
        hit = self._through(path)
        return hit is not None and self.lo <= hit[0] < self.lo + self.n_old

    def _rebuild(self, idx: int, rest: Path) -> Path:
        return tuple(self.owner_path) + ((self.attr, idx),) + tuple(rest)

    def _forward_node(self, desc):
        path = desc[1]
        hit = self._through(path)
        if hit is None:
            return desc
        j, rest = hit
        if j < self.lo:
            return desc
        if j >= self.lo + self.n_old:
            return ("node", self._rebuild(j + self._delta(), rest))
        mapped = self._map_inner(j - self.lo, rest)
        if mapped is None:
            return None
        new_off, new_rest = mapped
        return ("node", self._rebuild(self.lo + new_off, new_rest))

    def _forward_block(self, desc):
        _, owner, attr, lo, hi = desc
        if tuple(owner) == tuple(self.owner_path) and attr == self.attr:
            if hi <= self.lo:
                return desc
            if lo >= self.lo + self.n_old:
                d = self._delta()
                return ("block", owner, attr, lo + d, hi + d)
            # overlapping the rewritten range
            if lo >= self.lo and hi <= self.lo + self.n_old:
                if self.n_old == self.n_new:
                    return desc
                if self.n_new == 0:
                    return None
                return ("block", owner, attr, self.lo, self.lo + self.n_new)
            # partially overlapping: clip heuristically
            d = self._delta()
            new_hi = max(hi + d, self.lo + self.n_new)
            return ("block", owner, attr, min(lo, self.lo), new_hi)
        if lo < hi and self._inside(owner):
            # a list inside the rewritten range: the block's first and last
            # statements follow the inner map, and must stay together
            first = self._forward_node(("node", tuple(owner) + ((attr, lo),)))
            last = self._forward_node(("node", tuple(owner) + ((attr, hi - 1),)))
            if first is None or last is None or first[1][:-1] != last[1][:-1]:
                return None
            (new_attr, i), (_, j) = first[1][-1], last[1][-1]
            return ("block", first[1][:-1], new_attr, i, j + 1) if j - i == hi - lo - 1 else None
        # the owner path itself may pass through the edited block
        fwd_owner = self._forward_node(("node", owner))
        if fwd_owner is None:
            return None
        return ("block", fwd_owner[1], attr, lo, hi)

    def _forward_gap(self, desc):
        _, owner, attr, idx = desc
        if tuple(owner) == tuple(self.owner_path) and attr == self.attr:
            if idx <= self.lo:
                return desc
            if idx >= self.lo + self.n_old:
                return ("gap", owner, attr, idx + self._delta())
            return ("gap", owner, attr, self.lo)
        if self._inside(owner):
            # a list inside the rewritten range: the gap follows the
            # statement after it (one past the end for the last gap)
            after = self._forward_node(("node", tuple(owner) + ((attr, idx),)))
            if after is None:
                return None
            new_attr, i = after[1][-1]
            return ("gap", after[1][:-1], new_attr, i)
        # the owner is not inside the rewritten range, so it has an image
        return ("gap", self._forward_node(("node", owner))[1], attr, idx)


@dataclass
class MoveEdit:
    """Move ``n`` statements from a source block position to a destination gap.

    Destination coordinates are expressed in the tree *after* removal of the
    source statements (which is also how the edit is applied).
    """

    src_owner: Path
    src_attr: str
    src_idx: int
    n: int
    dst_owner: Path
    dst_attr: str
    dst_idx: int

    def apply(self, root):
        """Apply the move to ``root``: remove the source statements, then
        insert them at the destination gap (whose coordinates are expressed in
        the post-removal tree)."""
        src_parent = get_node(root, self.src_owner)
        moved = list(getattr(src_parent, self.src_attr))[self.src_idx : self.src_idx + self.n]
        root = replace_stmts(root, self.src_owner, self.src_attr, self.src_idx, self.n, [])
        return replace_stmts(root, self.dst_owner, self.dst_attr, self.dst_idx, 0, moved)

    def forward(self, desc: Desc) -> Optional[Desc]:
        delete = BlockRewrite(self.src_owner, self.src_attr, self.src_idx, self.n, 0)
        insert = BlockRewrite(self.dst_owner, self.dst_attr, self.dst_idx, 0, self.n)

        kind = desc[0]
        if kind == "node":
            hit = delete._through(desc[1])
            if hit is not None:
                j, rest = hit
                if self.src_idx <= j < self.src_idx + self.n:
                    # inside the moved range: relocate to the destination
                    new_path = (
                        tuple(self.dst_owner)
                        + ((self.dst_attr, self.dst_idx + (j - self.src_idx)),)
                        + tuple(rest)
                    )
                    return ("node", new_path)
        if kind == "block":
            _, owner, attr, lo, hi = desc
            if (
                tuple(owner) == tuple(self.src_owner)
                and attr == self.src_attr
                and lo >= self.src_idx
                and hi <= self.src_idx + self.n
            ):
                off = lo - self.src_idx
                return ("block", self.dst_owner, self.dst_attr, self.dst_idx + off, self.dst_idx + off + (hi - lo))
        out = delete.forward(desc)
        if out is None:
            return None
        return insert.forward(out)


@dataclass
class ExprEdit:
    """Replace the expression at ``path`` with ``new_expr``.

    Expression replacement does not change the statement structure of the
    tree, so descriptors forward unchanged (cursors below the replaced
    expression re-resolve heuristically, matching the historical behaviour of
    expression-level rewrites).
    """

    path: Path
    new_expr: object

    def apply(self, root):
        return set_node(root, self.path, self.new_expr)

    def forward(self, desc: Desc) -> Optional[Desc]:
        return desc


@dataclass
class FieldEdit:
    """Set a non-structural field (``pragma``, ``mem``, ``body`` wholesale,
    …) of the node at ``path``.  Descriptors forward unchanged."""

    path: Path
    attr: str
    value: object

    def apply(self, root):
        node = with_fields(get_node(root, self.path), **{self.attr: self.value})
        return set_node(root, self.path, node)

    def forward(self, desc: Desc) -> Optional[Desc]:
        return desc


@dataclass
class RootEdit:
    """Swap in a new procedure root as one atomic edit.

    Used by rewrites that touch many places at once (access re-indexing,
    simplification, precision changes) and do not track fine-grained
    forwarding; the new root is path-copied from the old one like any other
    edit's.  ``fwd`` defaults to the identity heuristic, which keeps cursors
    alive wherever the statement structure is unchanged.
    """

    new_root: object
    fwd: Callable[[Desc], Optional[Desc]] = identity_forward

    def apply(self, root):
        return self.new_root

    def forward(self, desc: Desc) -> Optional[Desc]:
        return self.fwd(desc)


@dataclass
class EditTrace:
    """An ordered list of atomic edits recorded by an edit session.

    Coordinates of each edit are relative to the tree produced by the previous
    edits (i.e. in application order).
    """

    edits: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.edits)

    def add(self, edit) -> None:
        self.edits.append(edit)

    def forward_fn(self) -> Callable[[Desc], Optional[Desc]]:
        """The composed forwarding function of the recorded edits.  It keeps
        their coordinates, not what they inserted: a forwarding function may
        outlive the versions it connects (``Procedure.as_successor_of``) and
        must not keep their trees alive."""
        steps = [_coordinates_only(e).forward for e in self.edits]

        def fwd(desc: Desc) -> Optional[Desc]:
            for step in steps:
                if desc is None:
                    return None
                desc = step(desc)
            return desc

        return fwd


def _coordinates_only(edit):
    """``edit`` without its payload (the statements, expression, field value
    or root it put in place); its ``forward`` is unchanged."""
    payload = {BlockRewrite: "new_stmts", ExprEdit: "new_expr", FieldEdit: "value", RootEdit: "new_root"}.get(type(edit))
    return edit if payload is None else replace(edit, **{payload: None})
