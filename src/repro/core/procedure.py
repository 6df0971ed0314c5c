"""The user-facing :class:`Procedure` object.

A ``Procedure`` wraps one version of an object program.  Scheduling primitives
take a ``Procedure`` (plus cursors and other arguments) and return a *new*
``Procedure``; the new version records its provenance — the previous version
and a forwarding function — so that cursors created against older versions can
be re-bound with :meth:`Procedure.forward` (the branching time model of
Section 5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from .. import obs
from ..analysis.linear import simplify_proc
from ..cursors.cursor import (
    ArgCursor,
    BlockCursor,
    Cursor,
    ExprCursor,
    GapCursor,
    InvalidCursor,
    StmtCursor,
    _find,
    _find_loop,
    make_expr_cursor,
    make_stmt_cursor,
)
from ..errors import InvalidCursorError, ParseError, SchedulingError
from ..ir import nodes as N
from ..ir.build import get_node, substitute_reads, with_fields
from ..ir.printing import proc_str
from ..ir.types import ScalarType, TensorType, int_t

__all__ = ["Procedure"]


class Procedure:
    """One version of an object program, with provenance for forwarding."""

    def __init__(
        self,
        root: N.ProcDef,
        *,
        provenance: Optional[tuple] = None,
        instr_info: Optional[N.InstrInfo] = None,
    ):
        if instr_info is not None:
            root = with_fields(root, instr=instr_info)
        self._root = root
        # provenance: (parent Procedure, forward function on descriptors)
        self._provenance = provenance
        # the EditTrace of atomic edits that produced this version (None for
        # root versions); recorded by the EditSession engine in _derive
        self._edit_trace = None

    # -- basic accessors ---------------------------------------------------------

    def name(self) -> str:
        return self._root.name

    def is_instr(self) -> bool:
        return self._root.instr is not None

    def edit_epoch(self) -> int:
        """This version's lineage epoch: the number of atomic edits between
        the original ``@proc`` definition and this version (0 for a freshly
        parsed procedure).  Per-procedure — editing one procedure never moves
        another's epoch (see :mod:`repro.ir.nodes`)."""
        return N.edit_epoch(self._root)

    def args(self) -> List[ArgCursor]:
        return [ArgCursor(self, i) for i in range(len(self._root.args))]

    def get_arg(self, name: str) -> ArgCursor:
        for i, a in enumerate(self._root.args):
            if a.name.name == name:
                return ArgCursor(self, i)
        raise InvalidCursorError(f"no argument named {name!r}")

    def body(self) -> BlockCursor:
        return BlockCursor(self, (), "body", 0, len(self._root.body))

    def __str__(self) -> str:
        return proc_str(self._root)

    def __repr__(self) -> str:
        return f"<Procedure {self.name()}>"

    # -- searching ---------------------------------------------------------------

    def find(self, pattern: str, many: bool = False):
        """Find object code matching ``pattern`` (see :mod:`repro.frontend.pattern`)."""
        return _find(self, (), pattern, many)

    def find_loop(self, name: str, many: bool = False):
        """Find the loop whose iteration variable is named ``name``."""
        return _find_loop(self, (), name, many)

    def find_alloc_or_arg(self, name: str):
        """Find the allocation or argument introducing buffer ``name``."""
        for i, a in enumerate(self._root.args):
            if a.name.name == name:
                return ArgCursor(self, i)
        return self.find(f"{name}: _")

    def find_all(self, pattern: str):
        return self.find(pattern, many=True)

    # -- forwarding ---------------------------------------------------------------

    def _lineage(self) -> List["Procedure"]:
        chain = [self]
        while chain[-1]._provenance is not None:
            chain.append(chain[-1]._provenance[0])
        return chain

    def forward(self, cursor: Cursor):
        """Forward ``cursor`` (created against an ancestor version of this
        procedure) into this procedure's reference frame."""
        if isinstance(cursor, InvalidCursor):
            return InvalidCursor(self)
        if not isinstance(cursor, Cursor):
            raise TypeError(f"expected a Cursor, got {type(cursor).__name__}")
        if cursor._proc is self:
            return cursor
        # collect forwarding functions from cursor's proc to self
        chain: List[Callable] = []
        p = self
        while p is not None and p is not cursor._proc:
            if p._provenance is None:
                p = None
                break
            parent, fwd = p._provenance
            chain.append(fwd)
            p = parent
        if p is None:
            raise InvalidCursorError(
                "cursor does not belong to an ancestor version of this procedure"
            )
        desc = cursor._descriptor()
        for fwd in reversed(chain):
            if desc is None:
                break
            desc = fwd(desc)
        result = self._cursor_from_descriptor(desc)
        if isinstance(result, InvalidCursor):
            # so it surfaces (e.g. as a structured trace warning) instead of
            # being silently dropped by validity-checking library code
            obs.cursor_invalidated(self, cursor)
        return result

    def _cursor_from_descriptor(self, desc):
        if desc is None:
            return InvalidCursor(self)
        kind = desc[0]
        try:
            if kind == "node":
                node = get_node(self._root, desc[1])
                if isinstance(node, N.Stmt):
                    return make_stmt_cursor(self, desc[1])
                return make_expr_cursor(self, desc[1])
            if kind == "block":
                _, owner, attr, lo, hi = desc
                return BlockCursor(self, owner, attr, lo, hi)
            if kind == "gap":
                _, owner, attr, idx = desc
                return GapCursor(self, owner, attr, idx)
            if kind == "arg":
                return ArgCursor(self, desc[1])
        except (IndexError, AttributeError, KeyError):
            return InvalidCursor(self)
        return InvalidCursor(self)

    def _derive(self, new_root: N.ProcDef, forward_fn: Callable, edit_trace=None) -> "Procedure":
        """Create the successor version of this procedure.

        Called by :meth:`repro.ir.edit.EditSession.finish`; ``edit_trace`` is
        the finished trace of atomic edits, kept as provenance so metrics and
        future caching layers can inspect how a version was produced."""
        new = Procedure(new_root, provenance=(self, forward_fn))
        new._edit_trace = edit_trace
        return new

    def as_successor_of(self, ancestor: "Procedure") -> "Procedure":
        """This version as the *one* step after ``ancestor``: the same object
        code, cursors of ``ancestor`` (and of anything older) forward into it
        exactly as before, and the versions in between — one per primitive a
        schedule applied, each keeping the nodes and memos only it had — are
        no longer kept alive.  ``self`` when ``ancestor`` is not a strict
        ancestor more than one step back."""
        steps: List[Callable] = []
        p = self
        while p is not ancestor:
            if p._provenance is None:
                return self
            p, fwd = p._provenance
            steps.append(fwd)
        if len(steps) < 2:
            return self
        steps.reverse()

        def forward(desc):
            for step in steps:
                if desc is None:
                    return None
                desc = step(desc)
            return desc

        return Procedure(self._root, provenance=(ancestor, forward))

    def edit_trace(self):
        """The trace of atomic edits that produced this version (or ``None``
        for a root version)."""
        return self._edit_trace

    def atomic_edit_count(self) -> int:
        """Number of atomic edits between this version and its parent."""
        return 0 if self._edit_trace is None else len(self._edit_trace)

    # -- the fluent entry points of the combinator API -----------------------------

    def apply(self, schedule, knobs: Optional[dict] = None, *, cache=None, **knob_kwargs):
        """Apply a first-class :class:`~repro.api.schedule.Schedule` to this
        procedure: ``p.apply(sched, tile_y=16)`` (``p >> sched`` applies it
        with default knob values).  Keyword arguments (or the ``knobs``
        dict) bind the schedule's named knobs; ``cache`` is an optional
        :class:`~repro.api.cache.ReplayCache`."""
        # told by its interface: this layer sits below repro.api and cannot
        # name the class (a Procedure has ``apply`` too, but records no trace)
        if not hasattr(schedule, "apply_traced"):
            raise TypeError(
                f"Procedure.apply: expected a Schedule, got {type(schedule).__name__}"
            )
        return schedule.apply(self, knobs, cache=cache, **knob_kwargs)

    # -- convenience methods mirroring the Exo API used in the paper ---------------

    def add_assertion(self, cond: str) -> "Procedure":
        """Return a copy of this procedure with an extra assertion."""
        from ..frontend.parser import parse_expr_fragment
        from ..ir.edit import EditSession

        try:  # a precondition may name the procedure's arguments only
            pred = parse_expr_fragment(cond, self._root)
        except (ParseError, SyntaxError) as err:
            raise SchedulingError(f"add_assertion: {err}") from None
        session = EditSession(self)
        session.set_field((), "preds", self._root.preds + [pred])
        return session.finish()

    def partial_eval(self, *vals, **kwvals) -> "Procedure":
        """Specialise leading size/index/bool arguments to constant values."""
        binding: Dict[str, object] = {}
        if vals:
            # positional values bind, in order, to the control arguments:
            # non-tensor args of an indexable (size/index/int) or bool type
            candidates = [
                a for a in self._root.args
                if isinstance(a.typ, ScalarType) and (a.typ.is_indexable() or a.typ.is_bool())
            ]
            if len(vals) > len(candidates):
                raise SchedulingError(
                    f"partial_eval: {len(vals)} positional values but only "
                    f"{len(candidates)} control arguments"
                )
            for a, v in zip(candidates, vals):
                binding[a.name.name] = v
        binding.update(kwvals)
        if not binding:
            raise SchedulingError("partial_eval: nothing to specialise")

        sub_env = {
            a.name: N.Const(binding[a.name.name], int_t)
            for a in self._root.args
            if a.name.name in binding
        }
        new_args = []
        for a in self._root.args:
            if a.name in sub_env:
                continue
            if isinstance(a.typ, TensorType):
                shape = [substitute_reads(e, sub_env) for e in a.typ.shape]
                a = N.FnArg(a.name, TensorType(a.typ.base, shape, a.typ.is_window), a.mem)
            new_args.append(a)
        from ..ir.edit import EditSession

        new_root = with_fields(
            self._root,
            args=new_args,
            preds=[substitute_reads(p, sub_env) for p in self._root.preds],
            body=[substitute_reads(s, sub_env) for s in self._root.body],
        )
        session = EditSession(self)
        session.set_root(simplify_proc(new_root))
        return session.finish()

    # -- equality / hashing --------------------------------------------------------

    def __hash__(self):
        return id(self._root)

    def __eq__(self, other):
        return self is other
