"""Cursors: multiple, stable, relative references into object code.

A cursor points to a statement, a block of statements, a gap between
statements, an expression, or a procedure argument of a *specific version* of
a procedure (its "time coordinate"); its "spatial coordinate" is a path of
``(field, index)`` steps from the procedure root (Section 5.2).

Cursors support:

* navigation — ``parent``, ``next``, ``prev``, ``before``, ``after``,
  ``body``, ``orelse``, ``expand``, …
* inspection — ``name``, ``hi``, ``lo``, ``rhs``, ``value``, ``mem``, …
* searching — ``find`` / ``find_loop`` restricted to the cursor's subtree
* forwarding — ``proc.forward(cursor)`` re-binds a cursor onto a later
  version of the procedure.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import InvalidCursorError
from ..ir import nodes as N
from ..ir.build import Path, get_node
from ..ir.printing import block_str, expr_str, stmt_lines
from ..ir.types import TensorType

__all__ = [
    "Cursor",
    "InvalidCursor",
    "StmtCursor",
    "BlockCursor",
    "GapCursor",
    "ExprCursor",
    "ArgCursor",
    "ForCursor",
    "IfCursor",
    "AssignCursor",
    "ReduceCursor",
    "AllocCursor",
    "CallCursor",
    "PassCursor",
    "WindowStmtCursor",
    "WriteConfigCursor",
    "ReadCursor",
    "WindowExprCursor",
    "LiteralCursor",
    "BinOpCursor",
    "UnaryMinusCursor",
    "ExternCursor",
    "StrideExprCursor",
    "ReadConfigCursor",
    "make_stmt_cursor",
    "make_expr_cursor",
    "is_invalid",
]


class Cursor:
    """Base class of all cursors."""

    def __init__(self, proc):
        self._proc = proc

    def proc(self):
        """The procedure version this cursor points into (its time coordinate)."""
        return self._proc

    def is_valid(self) -> bool:
        return True

    def _root(self):
        return self._proc._root

    # descriptor <-> cursor conversion used by forwarding -----------------------
    def _descriptor(self):
        raise NotImplementedError

    def __bool__(self) -> bool:
        return self.is_valid()


def is_invalid(cursor) -> bool:
    """True if ``cursor`` is an :class:`InvalidCursor` (usable as a predicate)."""
    return isinstance(cursor, InvalidCursor) or not cursor.is_valid()


class InvalidCursor(Cursor):
    """The result of navigating off the edge of the program, or of forwarding
    a cursor whose target no longer exists."""

    def __init__(self, proc=None):
        super().__init__(proc)

    def is_valid(self) -> bool:
        return False

    def _descriptor(self):
        return None

    def __getattr__(self, item):
        # Any navigation/inspection on an invalid cursor raises.
        def _raise(*_args, **_kwargs):
            raise InvalidCursorError("operation on an invalid cursor")

        if item.startswith("_"):
            raise AttributeError(item)
        return _raise

    def __eq__(self, other):
        return isinstance(other, InvalidCursor)

    def __hash__(self):
        return hash("InvalidCursor")

    def __repr__(self):
        return "InvalidCursor()"


# ---------------------------------------------------------------------------
# Node-pointing cursors (statements & expressions)
# ---------------------------------------------------------------------------


class _NodeCursor(Cursor):
    def __init__(self, proc, path: Path):
        super().__init__(proc)
        self._path = tuple(path)

    def _node(self):
        return get_node(self._root(), self._path)

    def path(self) -> Path:
        """The spatial coordinate (exposed for analyses & debugging)."""
        return self._path

    def depth(self) -> int:
        return len(self._path)

    def __eq__(self, other):
        return (
            isinstance(other, _NodeCursor)
            and self._proc is other._proc
            and self._path == other._path
        )

    def __hash__(self):
        return hash((id(self._proc), self._path))

    def _descriptor(self):
        return ("node", self._path)

    # -- navigation shared by statements and expressions -----------------------

    def parent(self):
        """The closest enclosing *statement* cursor (raises at the top level)."""
        path = self._path[:-1]
        while path:
            node = get_node(self._root(), path)
            if isinstance(node, N.Stmt):
                return make_stmt_cursor(self._proc, path)
            path = path[:-1]
        raise InvalidCursorError("cursor has no parent statement")


class StmtCursor(_NodeCursor):
    """Cursor to a single statement."""

    # -- sibling / gap navigation ----------------------------------------------

    def _owner(self) -> Tuple[Path, str, int]:
        attr, idx = self._path[-1]
        return self._path[:-1], attr, idx

    def _sibling_count(self) -> int:
        owner_path, attr, _ = self._owner()
        return len(getattr(get_node(self._root(), owner_path), attr))

    def next(self, dist: int = 1):
        owner_path, attr, idx = self._owner()
        j = idx + dist
        if 0 <= j < self._sibling_count():
            return make_stmt_cursor(self._proc, owner_path + ((attr, j),))
        return InvalidCursor(self._proc)

    def prev(self, dist: int = 1):
        return self.next(-dist)

    def before(self) -> "GapCursor":
        owner_path, attr, idx = self._owner()
        return GapCursor(self._proc, owner_path, attr, idx)

    def after(self) -> "GapCursor":
        owner_path, attr, idx = self._owner()
        return GapCursor(self._proc, owner_path, attr, idx + 1)

    def as_block(self) -> "BlockCursor":
        owner_path, attr, idx = self._owner()
        return BlockCursor(self._proc, owner_path, attr, idx, idx + 1)

    def expand(self, delta_lo: Optional[int] = None, delta_hi: Optional[int] = None) -> "BlockCursor":
        """Expand to a block including ``delta_lo`` statements before and
        ``delta_hi`` after (``None`` = as many as possible)."""
        return self.as_block().expand(delta_lo, delta_hi)

    # -- searching ---------------------------------------------------------------

    def find(self, pattern: str, many: bool = False):
        return _find(self._proc, self._path, pattern, many)

    def find_loop(self, name: str, many: bool = False):
        return _find_loop(self._proc, self._path, name, many)

    def find_all(self, pattern: str):
        return self.find(pattern, many=True)

    # -- misc ---------------------------------------------------------------------

    def body(self) -> "BlockCursor":
        raise InvalidCursorError(f"{type(self).__name__} has no body")

    def __repr__(self):
        lines = stmt_lines([self._node()])
        return f"<{type(self).__name__}: {lines[0].strip() if lines else '?'} ...>"

    def __str__(self):
        return block_str([self._node()])


class ForCursor(StmtCursor):
    """Cursor to a ``for`` loop."""

    def name(self) -> str:
        return self._node().iter.name

    def iter_sym(self):
        return self._node().iter

    def lo(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("lo", None),))

    def hi(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("hi", None),))

    def body(self) -> "BlockCursor":
        return BlockCursor(self._proc, self._path, "body", 0, len(self._node().body))

    def is_parallel(self) -> bool:
        return self._node().pragma == "par"


class IfCursor(StmtCursor):
    """Cursor to an ``if`` statement."""

    def cond(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("cond", None),))

    def body(self) -> "BlockCursor":
        return BlockCursor(self._proc, self._path, "body", 0, len(self._node().body))

    def orelse(self) -> "BlockCursor":
        node = self._node()
        if not node.orelse:
            return BlockCursor(self._proc, self._path, "orelse", 0, 0)
        return BlockCursor(self._proc, self._path, "orelse", 0, len(node.orelse))

    def has_orelse(self) -> bool:
        return bool(self._node().orelse)


class _WriteCursor(StmtCursor):
    def name(self) -> str:
        return self._node().name.name

    def buf_sym(self):
        return self._node().name

    def idx(self) -> List["ExprCursor"]:
        return [
            make_expr_cursor(self._proc, self._path + (("idx", i),))
            for i in range(len(self._node().idx))
        ]

    def rhs(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("rhs", None),))


class AssignCursor(_WriteCursor):
    """Cursor to an assignment ``x[i] = e``."""


class ReduceCursor(_WriteCursor):
    """Cursor to a reduction ``x[i] += e``."""


class AllocCursor(StmtCursor):
    """Cursor to a buffer allocation."""

    def name(self) -> str:
        return self._node().name.name

    def buf_sym(self):
        return self._node().name

    def mem(self):
        return self._node().mem

    def typ(self):
        return self._node().typ

    def base_type(self):
        return self._node().typ.basetype()

    def shape(self) -> List["ExprCursor"]:
        typ = self._node().typ
        if not isinstance(typ, TensorType):
            return []
        # shape expressions live inside the type; expose them as plain exprs
        return [_FrozenExprCursor(self._proc, e) for e in typ.shape]

    def is_scalar(self) -> bool:
        return not isinstance(self._node().typ, TensorType)


class CallCursor(StmtCursor):
    """Cursor to a call of another procedure."""

    def subproc(self):
        return self._node().proc

    def name(self) -> str:
        p = self._node().proc
        return p.name() if callable(getattr(p, "name", None)) else p.name

    def args(self) -> List["ExprCursor"]:
        return [
            make_expr_cursor(self._proc, self._path + (("args", i),))
            for i in range(len(self._node().args))
        ]


class PassCursor(StmtCursor):
    """Cursor to a ``pass`` statement."""


class WindowStmtCursor(StmtCursor):
    """Cursor to a window-binding statement ``w = A[...]``."""

    def name(self) -> str:
        return self._node().name.name

    def rhs(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("rhs", None),))


class WriteConfigCursor(StmtCursor):
    """Cursor to a configuration write ``cfg.field = e``."""

    def config(self):
        return self._node().config

    def field(self) -> str:
        return self._node().field_name

    def rhs(self) -> "ExprCursor":
        return make_expr_cursor(self._proc, self._path + (("rhs", None),))


_STMT_CURSOR_TYPES = {
    N.For: ForCursor,
    N.If: IfCursor,
    N.Assign: AssignCursor,
    N.Reduce: ReduceCursor,
    N.Alloc: AllocCursor,
    N.Call: CallCursor,
    N.Pass: PassCursor,
    N.WindowStmt: WindowStmtCursor,
    N.WriteConfig: WriteConfigCursor,
}


def make_stmt_cursor(proc, path: Path) -> StmtCursor:
    node = get_node(proc._root, path)
    cls = _STMT_CURSOR_TYPES.get(type(node), StmtCursor)
    return cls(proc, path)


# ---------------------------------------------------------------------------
# Expression cursors
# ---------------------------------------------------------------------------


class ExprCursor(_NodeCursor):
    """Cursor to an expression."""

    def typ(self):
        return getattr(self._node(), "typ", None)

    def parent_expr(self):
        path = self._path[:-1]
        node = get_node(self._root(), path) if path else None
        if isinstance(node, N.Expr):
            return make_expr_cursor(self._proc, path)
        return InvalidCursor(self._proc)

    def __repr__(self):
        return f"<{type(self).__name__}: {expr_str(self._node())}>"

    def __str__(self):
        return expr_str(self._node())


class ReadCursor(ExprCursor):
    def name(self) -> str:
        return self._node().name.name

    def buf_sym(self):
        return self._node().name

    def idx(self) -> List[ExprCursor]:
        return [
            make_expr_cursor(self._proc, self._path + (("idx", i),))
            for i in range(len(self._node().idx))
        ]

    def is_scalar_read(self) -> bool:
        return not self._node().idx


class WindowExprCursor(ExprCursor):
    def name(self) -> str:
        return self._node().name.name

    def buf_sym(self):
        return self._node().name


class LiteralCursor(ExprCursor):
    def value(self):
        return self._node().val


class BinOpCursor(ExprCursor):
    def op(self) -> str:
        return self._node().op

    def lhs(self) -> ExprCursor:
        return make_expr_cursor(self._proc, self._path + (("lhs", None),))

    def rhs(self) -> ExprCursor:
        return make_expr_cursor(self._proc, self._path + (("rhs", None),))


class UnaryMinusCursor(ExprCursor):
    def arg(self) -> ExprCursor:
        return make_expr_cursor(self._proc, self._path + (("arg", None),))


class ExternCursor(ExprCursor):
    def name(self) -> str:
        return self._node().fname

    def args(self) -> List[ExprCursor]:
        return [
            make_expr_cursor(self._proc, self._path + (("args", i),))
            for i in range(len(self._node().args))
        ]


class StrideExprCursor(ExprCursor):
    def name(self) -> str:
        return self._node().name.name

    def dim(self) -> int:
        return self._node().dim


class ReadConfigCursor(ExprCursor):
    def config(self):
        return self._node().config

    def field(self) -> str:
        return self._node().field_name


class _FrozenExprCursor(ExprCursor):
    """An expression cursor that holds its node directly (used for expressions
    that live outside the navigable tree, e.g. tensor-shape expressions)."""

    def __init__(self, proc, node):
        Cursor.__init__(self, proc)
        self._path = ()
        self.__node = node

    def _node(self):
        return self.__node

    def _descriptor(self):
        return None


_EXPR_CURSOR_TYPES = {
    N.Read: ReadCursor,
    N.WindowExpr: WindowExprCursor,
    N.Const: LiteralCursor,
    N.BinOp: BinOpCursor,
    N.USub: UnaryMinusCursor,
    N.Extern: ExternCursor,
    N.StrideExpr: StrideExprCursor,
    N.ReadConfig: ReadConfigCursor,
    N.Interval: ExprCursor,
    N.Point: ExprCursor,
}


def make_expr_cursor(proc, path: Path) -> ExprCursor:
    node = get_node(proc._root, path)
    cls = _EXPR_CURSOR_TYPES.get(type(node), ExprCursor)
    return cls(proc, path)


# ---------------------------------------------------------------------------
# Block and gap cursors
# ---------------------------------------------------------------------------


class BlockCursor(Cursor):
    """Cursor to a contiguous range of statements in one statement list."""

    def __init__(self, proc, owner_path: Path, attr: str, lo: int, hi: int):
        super().__init__(proc)
        self._owner_path = tuple(owner_path)
        self._attr = attr
        self._lo = lo
        self._hi = hi

    # -- basic protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[StmtCursor]:
        for i in range(self._lo, self._hi):
            yield make_stmt_cursor(self._proc, self._owner_path + ((self._attr, i),))

    def __getitem__(self, i: int) -> StmtCursor:
        items = list(self)
        return items[i]

    def __eq__(self, other):
        return (
            isinstance(other, BlockCursor)
            and self._proc is other._proc
            and (self._owner_path, self._attr, self._lo, self._hi)
            == (other._owner_path, other._attr, other._lo, other._hi)
        )

    def __hash__(self):
        return hash((id(self._proc), self._owner_path, self._attr, self._lo, self._hi))

    def _descriptor(self):
        return ("block", self._owner_path, self._attr, self._lo, self._hi)

    def _stmts(self) -> List[N.Stmt]:
        owner = get_node(self._root(), self._owner_path)
        return list(getattr(owner, self._attr))[self._lo : self._hi]

    # -- navigation ----------------------------------------------------------------

    def parent(self) -> StmtCursor:
        if not self._owner_path:
            raise InvalidCursorError("block at procedure top level has no parent")
        return make_stmt_cursor(self._proc, self._owner_path)

    def expand(self, delta_lo: Optional[int] = None, delta_hi: Optional[int] = None) -> "BlockCursor":
        owner = get_node(self._root(), self._owner_path)
        n = len(getattr(owner, self._attr))
        lo = 0 if delta_lo is None else max(0, self._lo - delta_lo)
        hi = n if delta_hi is None else min(n, self._hi + delta_hi)
        return BlockCursor(self._proc, self._owner_path, self._attr, lo, hi)

    def before(self) -> "GapCursor":
        return GapCursor(self._proc, self._owner_path, self._attr, self._lo)

    def after(self) -> "GapCursor":
        return GapCursor(self._proc, self._owner_path, self._attr, self._hi)

    def anchor(self) -> StmtCursor:
        """The first statement of the block."""
        if len(self) == 0:
            raise InvalidCursorError("empty block has no anchor")
        return self[0]

    # -- searching -----------------------------------------------------------------

    def find(self, pattern: str, many: bool = False):
        results = []
        for c in self:
            found = _find(self._proc, c._path, pattern, True)
            results.extend(found)
        if many:
            return results
        if not results:
            raise InvalidCursorError(f"pattern {pattern!r} not found in block")
        return results[0]

    def find_loop(self, name: str, many: bool = False):
        results = []
        for c in self:
            results.extend(_find_loop(self._proc, c._path, name, True))
        if many:
            return results
        if not results:
            raise InvalidCursorError(f"loop {name!r} not found in block")
        return results[0]

    def __repr__(self):
        return f"<BlockCursor of {len(self)} stmts>"

    def __str__(self):
        return block_str(self._stmts())


class GapCursor(Cursor):
    """Cursor to the gap before statement ``idx`` in a statement list."""

    def __init__(self, proc, owner_path: Path, attr: str, idx: int):
        super().__init__(proc)
        self._owner_path = tuple(owner_path)
        self._attr = attr
        self._idx = idx

    def _descriptor(self):
        return ("gap", self._owner_path, self._attr, self._idx)

    def __eq__(self, other):
        return (
            isinstance(other, GapCursor)
            and self._proc is other._proc
            and (self._owner_path, self._attr, self._idx) == (other._owner_path, other._attr, other._idx)
        )

    def __hash__(self):
        return hash((id(self._proc), self._owner_path, self._attr, self._idx))

    def parent(self) -> StmtCursor:
        if not self._owner_path:
            raise InvalidCursorError("gap at procedure top level has no parent")
        return make_stmt_cursor(self._proc, self._owner_path)

    def anchor(self):
        """The statement after this gap (or before it, at the end of a list)."""
        owner = get_node(self._root(), self._owner_path)
        n = len(getattr(owner, self._attr))
        idx = self._idx if self._idx < n else n - 1
        if idx < 0:
            return InvalidCursor(self._proc)
        return make_stmt_cursor(self._proc, self._owner_path + ((self._attr, idx),))

    def stmt_before(self):
        if self._idx == 0:
            return InvalidCursor(self._proc)
        return make_stmt_cursor(self._proc, self._owner_path + ((self._attr, self._idx - 1),))

    def stmt_after(self):
        owner = get_node(self._root(), self._owner_path)
        if self._idx >= len(getattr(owner, self._attr)):
            return InvalidCursor(self._proc)
        return make_stmt_cursor(self._proc, self._owner_path + ((self._attr, self._idx),))

    def index(self) -> int:
        return self._idx

    def __repr__(self):
        return f"<GapCursor at index {self._idx}>"


# ---------------------------------------------------------------------------
# Argument cursors
# ---------------------------------------------------------------------------


class ArgCursor(Cursor):
    """Cursor to a procedure argument."""

    def __init__(self, proc, idx: int):
        super().__init__(proc)
        self._idx = idx

    def _arg(self) -> N.FnArg:
        return self._root().args[self._idx]

    def _descriptor(self):
        return ("arg", self._idx)

    def name(self) -> str:
        return self._arg().name.name

    def sym(self):
        return self._arg().name

    def typ(self):
        return self._arg().typ

    def mem(self):
        return self._arg().mem

    def is_size(self) -> bool:
        typ = self._arg().typ
        return getattr(typ, "name", None) == "size"

    def is_tensor(self) -> bool:
        return isinstance(self._arg().typ, TensorType)

    def shape(self) -> List[ExprCursor]:
        typ = self._arg().typ
        if not isinstance(typ, TensorType):
            return []
        return [_FrozenExprCursor(self._proc, e) for e in typ.shape]

    def __eq__(self, other):
        return isinstance(other, ArgCursor) and self._proc is other._proc and self._idx == other._idx

    def __hash__(self):
        return hash((id(self._proc), "arg", self._idx))

    def __repr__(self):
        return f"<ArgCursor {self.name()}>"


# ---------------------------------------------------------------------------
# Searching helpers (shared between Procedure and cursor classes)
# ---------------------------------------------------------------------------


def _find(proc, base_path: Path, pattern: str, many: bool):
    from ..frontend.pattern import find_pattern_matches

    matches, occurrence = find_pattern_matches(proc._root, base_path, pattern)
    cursors: List[Cursor] = []
    for m in matches:
        if m.kind == "expr":
            cursors.append(make_expr_cursor(proc, m.path))
        else:
            if m.length == 1:
                cursors.append(make_stmt_cursor(proc, m.owner_path + ((m.attr, m.start),)))
            else:
                cursors.append(BlockCursor(proc, m.owner_path, m.attr, m.start, m.start + m.length))
    if occurrence is not None:
        if occurrence >= len(cursors):
            raise InvalidCursorError(
                f"pattern {pattern!r}: requested occurrence #{occurrence} but only {len(cursors)} matches"
            )
        cursors = [cursors[occurrence]]
        if not many:
            return cursors[0]
    if many:
        return cursors
    if not cursors:
        raise InvalidCursorError(f"pattern {pattern!r} did not match")
    return cursors[0]


def _loop_names_below(proc, base_path: Path) -> List[str]:
    """Iteration-variable names of every loop at or below ``base_path``."""
    from ..ir.build import walk

    root = get_node(proc._root, tuple(base_path))
    names = []
    seen = set()
    for node, _ in walk(root):
        if isinstance(node, N.For) and node.iter.name not in seen:
            seen.add(node.iter.name)
            names.append(node.iter.name)
    return names


class LoopNotFoundError(InvalidCursorError):
    """``find_loop`` failed.  The near-miss suggestion ("did you mean 'j'?")
    requires walking every loop in scope and running difflib over the names —
    pure waste when a caller catches the error and recovers (``to_loop_cursor``
    falls back to pattern search, and library code probes
    optional loops in ``try/except`` all the time).  The walk is therefore
    deferred to :meth:`__str__`: it only ever runs when the failure actually
    surfaces as a rendered message."""

    def __init__(self, proc, base_path: Path, name: str, fallback: str):
        super().__init__(fallback)
        self._proc = proc
        self._base_path = tuple(base_path)
        self._name = name
        self._fallback = fallback
        self._rendered: Optional[str] = None

    def _render(self) -> str:
        import difflib

        try:
            names = _loop_names_below(self._proc, self._base_path)
        except Exception:  # pragma: no cover - defensive
            return self._fallback
        if self._name in names:
            return self._fallback  # the name exists; the failure is an occurrence selector
        close = difflib.get_close_matches(self._name, names, n=3, cutoff=0.4) or sorted(names)[:4]
        if close:
            suggestion = ", ".join(repr(n) for n in close)
            return f"no loop {self._name!r}; did you mean {suggestion}?"
        return f"no loop {self._name!r}; the scope contains no loops"

    def __str__(self) -> str:
        if self._rendered is None:
            self._rendered = self._render()
        return self._rendered

    def __reduce__(self):
        # the lazy walk cannot cross a process boundary (the procedure does
        # not travel with the exception): render eagerly and pickle as the
        # base class with the final message
        return (InvalidCursorError, (str(self),))


def _find_loop(proc, base_path: Path, name: str, many: bool):
    name, _, occ = name.partition("#")
    name = name.strip()
    pattern = f"for {name} in _: _"
    if occ.strip():
        pattern += f" #{occ.strip()}"
    try:
        return _find(proc, base_path, pattern, many)
    except InvalidCursorError as err:
        # Raise a lazy error: the suggestion walk stays guarded behind the
        # *surfaced*-failure branch (message rendering), so recovered lookups
        # never pay for it.
        raise LoopNotFoundError(proc, base_path, name, str(err)) from None
