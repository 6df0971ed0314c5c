"""AST nodes of the object language (the "LoopIR").

The IR is a small imperative loop language:

Expressions
    ``Const``, ``Read``, ``BinOp``, ``USub``, ``WindowExpr``, ``StrideExpr``,
    ``Extern``, ``ReadConfig``

Statements
    ``Assign``, ``Reduce``, ``Alloc``, ``For``, ``If``, ``Pass``, ``Call``,
    ``WindowStmt``, ``WriteConfig``

Procedures
    ``ProcDef`` — name, typed arguments, assertion predicates, body, and an
    optional instruction template (for ``@instr`` procedures that map to a
    single hardware instruction during code generation).

All nodes use identity equality; structural equality is provided by
:func:`repro.ir.build.structurally_equal`.

Types.  Only the leaves (``Const``, ``Read``, ``WindowExpr``, ``StrideExpr``,
``ReadConfig``) and the declarations (arguments, ``Alloc``, and a
``WindowStmt`` through its window) carry a type.  An arithmetic node's ``typ``
is derived from its operands when first asked (``bool`` for a comparison or
``and`` / ``or``, :func:`repro.ir.types.arith_type` for ``+ - * / %``, the
argument's for a negation, the extern's ``result`` rule for a call), and a
write's type is its destination's declaration.  So no rewrite can leave a type
behind that its operands no longer give.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple, Union

from .externs import extern_by_name
from .memories import DRAM, Memory
from .syms import Sym
from .types import ScalarType, TensorType, arith_type, bool_t, index_t, int_t

__all__ = [
    "Node",
    "memo",
    "edit_epoch",
    "set_edit_epoch",
    "Expr",
    "Stmt",
    "Const",
    "Read",
    "BinOp",
    "USub",
    "WindowExpr",
    "Interval",
    "Point",
    "StrideExpr",
    "Extern",
    "ReadConfig",
    "Assign",
    "Reduce",
    "Alloc",
    "For",
    "If",
    "Pass",
    "Call",
    "WindowStmt",
    "WriteConfig",
    "FnArg",
    "InstrInfo",
    "ProcDef",
    "Type",
    "FIELDS",
    "LIST_FIELDS",
    "child_fields",
]

Type = Union[ScalarType, TensorType]


# Per-procedure edit epochs.  Each ``ProcDef`` root carries an ``edit_epoch``
# counter (stored as plain instance state, not a dataclass field, so it never
# participates in structural hashing or equality): the number of atomic edits
# in its lineage since the original ``@proc`` definition.  The edit engine
# (:class:`repro.ir.edit.EditSession`) stamps it on every derived root.
#
# Unlike the global mutation epoch this scheme replaced, bumping one
# procedure's epoch invalidates nothing anywhere else.  The epoch is an
# observable version counter (service observability, cache diagnostics,
# tests), not an invalidation broadcast.
#
# The immutability contract.  No field of a node is assigned after its
# constructor returns, and the lists a node holds are never mutated: a
# "change" builds a new node (:func:`repro.ir.build.with_fields`) and
# path-copies its ancestors, so every untouched subtree of the old version is
# the *same object* in the new one.  What is memoised on a node (:func:`memo`:
# plain instance state, outside the fields) — on roots the printed-form
# digest (:func:`repro.api.trace.state_hash`: a trace's two ends, the
# service's reply, ``repeat``'s progress test), the procedure identity every
# cache keys on (:func:`repro.ir.printing.procedure_digest`) and the argument
# facts (:meth:`repro.analysis.linear.FactEnv.from_proc`) —
# is a pure function of that immutable content.  It therefore never goes
# stale, survives every edit that does not touch the subtree, and is safe to
# fill from concurrent threads: the worst race is two threads storing the
# same value.  One entry on roots also depends on the world outside the node:
# the native backend's record (``repro.backend.native``), stored the same way
# but keyed by every outside input it read and checked against them on every
# read, so a changed input is a miss, never a stale answer.


def memo(node, key: str, compute):
    """``compute(node)``, computed once and kept on ``node`` under ``key`` (the
    contract above: a pure function of the node's content, stored outside the
    dataclass fields, never invalidated)."""
    state = node.__dict__
    if key not in state:
        state[key] = compute(node)
    return state[key]


def edit_epoch(root) -> int:
    """The number of atomic edits in ``root``'s lineage (0 for a freshly
    parsed procedure)."""
    return getattr(root, "_edit_epoch", 0)


def set_edit_epoch(root, value: int) -> None:
    """Stamp a derived root's lineage epoch (edit-engine internal)."""
    root._edit_epoch = int(value)


class Node:
    """Base class for all IR nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


@dataclass(eq=False)
class Const(Expr):
    """A literal constant (int, float, or bool)."""

    val: object
    typ: Type = int_t


@dataclass(eq=False)
class Read(Expr):
    """Read of a variable; ``idx`` is empty for scalars and iterators."""

    name: Sym
    idx: List["Expr"] = field(default_factory=list)
    typ: Type = index_t


@dataclass(eq=False)
class BinOp(Expr):
    """Binary operation.  ``op`` is one of ``+ - * / %`` and the comparison
    and boolean operators ``< <= > >= == != and or`` (the latter only appear
    in assertions and ``if`` conditions)."""

    op: str
    lhs: "Expr"
    rhs: "Expr"

    @property
    def typ(self) -> Type:
        return memo(self, "_typ", _binop_type)


@dataclass(eq=False)
class USub(Expr):
    """Unary negation."""

    arg: "Expr"

    @property
    def typ(self) -> Type:
        return self.arg.typ


@dataclass(eq=False)
class Interval(Node):
    """A half-open window interval ``lo:hi`` used inside :class:`WindowExpr`."""

    lo: "Expr"
    hi: "Expr"


@dataclass(eq=False)
class Point(Node):
    """A single-point window access used inside :class:`WindowExpr`."""

    pt: "Expr"


@dataclass(eq=False)
class WindowExpr(Expr):
    """A window (sub-view) of a tensor, e.g. ``A[i, 0:16]``."""

    name: Sym
    idx: List[Union[Interval, Point]] = field(default_factory=list)
    typ: Type = index_t


@dataclass(eq=False)
class StrideExpr(Expr):
    """``stride(A, dim)`` — the runtime stride of a tensor argument."""

    name: Sym
    dim: int
    typ: Type = index_t


@dataclass(eq=False)
class Extern(Expr):
    """Call of a registered extern function inside an expression
    (e.g. ``relu(x)``, ``select(a, b, c, d)``)."""

    fname: str
    args: List["Expr"] = field(default_factory=list)

    @property
    def typ(self) -> Type:
        return memo(self, "_typ", _extern_type)


_BOOL_OPS = frozenset(("<", "<=", ">", ">=", "==", "!=", "and", "or"))


def _binop_type(e: BinOp) -> Type:
    return bool_t if e.op in _BOOL_OPS else arith_type(e.lhs.typ, e.rhs.typ)


def _extern_type(e: Extern) -> Type:
    return extern_by_name(e.fname).result([a.typ for a in e.args])


@dataclass(eq=False)
class ReadConfig(Expr):
    """Read of a configuration-state field, e.g. ``cfg.stride``."""

    config: "Config"
    field_name: str
    typ: Type = index_t


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


@dataclass(eq=False)
class Assign(Stmt):
    """``x[idx] = rhs``"""

    name: Sym
    idx: List[Expr]
    rhs: Expr


@dataclass(eq=False)
class Reduce(Stmt):
    """``x[idx] += rhs``"""

    name: Sym
    idx: List[Expr]
    rhs: Expr


@dataclass(eq=False)
class Alloc(Stmt):
    """Buffer (or scalar) allocation: ``x : f32[n] @ MEM``."""

    name: Sym
    typ: Type = None
    mem: Memory = DRAM


@dataclass(eq=False)
class For(Stmt):
    """``for i in seq(lo, hi): body`` — a loop.

    ``pragma`` may be set to ``"par"`` by ``parallelize_loop`` (checked: the
    iterations commute).  The tree-walking reference interpreter still runs
    ``par`` loops sequentially (its results define the oracle), but the
    compiled NumPy engine dispatches them over a thread pool
    (:mod:`repro.interp.parallel`) and the C backend emits OpenMP pragmas;
    the performance model also reads the annotation.
    """

    iter: Sym = None
    lo: Expr = None
    hi: Expr = None
    body: List[Stmt] = field(default_factory=list)
    pragma: str = "seq"


@dataclass(eq=False)
class If(Stmt):
    """``if cond: body else: orelse``"""

    cond: Expr = None
    body: List[Stmt] = field(default_factory=list)
    orelse: List[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class Pass(Stmt):
    """``pass`` — a no-op statement."""


@dataclass(eq=False)
class Call(Stmt):
    """Call of another procedure (possibly an ``@instr`` procedure)."""

    proc: "ProcDef" = None
    args: List[Expr] = field(default_factory=list)


@dataclass(eq=False)
class WindowStmt(Stmt):
    """``w = A[i, 0:16]`` — bind a window expression to a name."""

    name: Sym = None
    rhs: WindowExpr = None

    @property
    def typ(self) -> Type:
        return self.rhs.typ


@dataclass(eq=False)
class WriteConfig(Stmt):
    """``cfg.field = rhs`` — write a configuration-state field."""

    config: "Config" = None
    field_name: str = ""
    rhs: Expr = None


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FnArg(Node):
    """A procedure argument."""

    name: Sym
    typ: Type
    mem: Optional[Memory] = None


@dataclass(eq=False)
class InstrInfo(Node):
    """Code-generation template attached to ``@instr`` procedures.

    ``intrinsic`` marks templates that are *real*, compilable C — the native
    backend emits them verbatim and links the result.  Templates without the
    flag (documentation pseudo-C, e.g. the Gemmini ISA on an x86 host, or a
    user-modelled vector ISA with no hardware mapping) are never emitted by
    the native backend; it inlines the instruction's body as scalar C
    instead, which is always semantically correct.
    """

    c_instr: str = ""
    c_global: str = ""
    cost: float = 1.0
    intrinsic: bool = False


@dataclass(eq=False)
class ProcDef(Node):
    """A procedure definition."""

    name: str
    args: List[FnArg] = field(default_factory=list)
    preds: List[Expr] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    instr: Optional[InstrInfo] = None


# ---------------------------------------------------------------------------
# Field metadata used by generic traversal / cursors
# ---------------------------------------------------------------------------

#: Dataclass field names per node class, in constructor order (looked up per
#: node by the rewriters and hashers; ``dataclasses.fields()`` is too slow
#: for that).
FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, Node) and hasattr(cls, "__dataclass_fields__")
}

# Fields that hold *lists of statements* (the only places gaps and blocks live)
LIST_FIELDS = {
    ProcDef: ("body",),
    For: ("body",),
    If: ("body", "orelse"),
}

# For each node class: ordered (field, is_list) pairs of children that cursors
# may navigate into.
_CHILD_FIELDS = {
    ProcDef: (("body", True),),
    For: (("lo", False), ("hi", False), ("body", True)),
    If: (("cond", False), ("body", True), ("orelse", True)),
    Assign: (("idx", True), ("rhs", False)),
    Reduce: (("idx", True), ("rhs", False)),
    Alloc: (),
    Pass: (),
    Call: (("args", True),),
    WindowStmt: (("rhs", False),),
    WriteConfig: (("rhs", False),),
    Const: (),
    Read: (("idx", True),),
    BinOp: (("lhs", False), ("rhs", False)),
    USub: (("arg", False),),
    WindowExpr: (("idx", True),),
    Interval: (("lo", False), ("hi", False)),
    Point: (("pt", False),),
    StrideExpr: (),
    Extern: (("args", True),),
    ReadConfig: (),
}


def child_fields(node: Node) -> Tuple[Tuple[str, bool], ...]:
    """Return the navigable children of ``node`` as ``(field, is_list)`` pairs."""
    return _CHILD_FIELDS.get(type(node), ())


# Imported late to avoid a cycle; Config is only referenced by annotations.
from .config import Config  # noqa: E402  (circular-import guard)
