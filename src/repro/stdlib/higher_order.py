"""Higher-order scheduling combinators (Section 3.4).

Operations of type ``cOp = Proc × Cursor × ... → Proc × Cursor`` can be built
from ordinary ``Op``s with :func:`lift` and composed with :func:`seq`,
:func:`repeat`, :func:`try_else` and :func:`reduce`.  :func:`apply` and
:func:`filter_c` are the list-of-cursors conveniences of Figure 7b (the BLAS
library uses :func:`filter_c`), and :func:`nav` / :func:`savec` / :func:`reframe`
recreate ELEVATE's linear-time reference model (Section 6.3.1).
"""

from __future__ import annotations

from typing import Callable, List

from ..api import attempt
from ..cursors.cursor import Cursor, is_invalid as _is_invalid_fn
from ..ir.printing import procedure_digest

__all__ = [
    "lift",
    "seq",
    "repeat",
    "try_else",
    "reduce",
    "apply",
    "filter_c",
    "nav",
    "savec",
    "reframe",
    "Pred",
    "is_invalid",
]


def lift(op: Callable) -> Callable:
    """Lift an ``Op`` (returning just a procedure) into a ``cOp`` (returning
    procedure and cursor): ``lift op = λ(p, c). (op(p, c), c)``."""

    def func(p, c, *args, **kwargs):
        return op(p, c, *args, **kwargs), c

    func.__name__ = f"lift({getattr(op, '__name__', 'op')})"
    return func


def seq(*ops: Callable) -> Callable:
    """Sequential composition of cOps."""

    def func(p, c, *args, **kwargs):
        for op in ops:
            p, c = op(p, c, *args, **kwargs)
        return p, c

    return func


def _where(p, args):
    """What a round of :func:`repeat` may move: the procedure's identity and
    the threaded cursor's place (a cursor is compared by its coordinates,
    since each round's procedure is a new object)."""
    return procedure_digest(p._root), [c._descriptor() if isinstance(c, Cursor) else c for c in args[:1]]


def repeat(op: Callable) -> Callable:
    """Apply an Op or cOp repeatedly until it refuses (the refused round is
    rolled back to one ``recovered`` trace entry; see :func:`repro.api.attempt`)
    or until a round moves neither the procedure nor the threaded cursor.

    Works both for cursor-threading cOps (``repeat(lift_alloc)(p, c)``) and for
    plain Ops with extra arguments (``repeat(call_eqv)(p, foo, bar)``).
    """

    def func(p, *args, **kwargs):
        args = list(args)
        returned_tuple = False
        where = _where(p, args)
        while True:
            res = attempt("repeat", op, p, *args, **kwargs)
            if res is None:
                break
            returned_tuple |= isinstance(res, tuple)
            p, *rest = res if isinstance(res, tuple) else (res,)
            if rest and args:
                args[0] = rest[0]
            if where == (where := _where(p, args)):  # the round moved nothing
                break
        if returned_tuple and args:
            return p, args[0]
        return p

    return func


def try_else(op: Callable, opelse: Callable) -> Callable:
    """Apply ``op``; fall back to ``opelse`` if it refuses."""

    def func(p, c, *args, **kwargs):
        res = attempt("try_else", op, p, c, *args, **kwargs)
        return opelse(p, c, *args, **kwargs) if res is None else res

    return func


def reduce(op: Callable, top: Callable) -> Callable:
    """Apply a cOp at every cursor produced by the traversal ``top``
    (``Top = Cursor → Stream[Cursor]``)."""

    def func(p, cur, *args, **kwargs):
        c = cur
        for c in top(cur):
            p, c = op(p, c, *args, **kwargs)
        return p, c

    return func


def apply(op: Callable) -> Callable:
    """Apply an Op to each cursor in a list: ``apply(vectorize)(p, loops, ...)``."""

    def func(p, cursors, *args, **kwargs):
        for c in cursors:
            p = op(p, c, *args, **kwargs)
        return p

    return func


class Pred:
    """A cursor predicate supporting ``~`` (negation)."""

    def __init__(self, fn: Callable, name: str = "pred"):
        self.fn = fn
        self.name = name

    def __call__(self, cursor) -> bool:
        return bool(self.fn(cursor))

    def __invert__(self) -> "Pred":
        return Pred(lambda c: not self.fn(c), f"not {self.name}")


is_invalid = Pred(_is_invalid_fn, "is_invalid")


def filter_c(pred: Callable) -> Callable:
    """Filter a list of cursors by a predicate: ``filter_c(~is_invalid)(p, cs)``."""

    def func(p, cursors) -> List:
        return [c for c in cursors if pred(c)]

    return func


def nav(move: Callable) -> Callable:
    """A cOp that navigates the reference frame with ``move`` after forwarding
    the cursor to the current procedure."""

    def func(p, c, *args, **kwargs):
        return p, move(p.forward(c))

    return func


def savec(op: Callable) -> Callable:
    """Run ``op`` but restore the incoming cursor afterwards."""

    def func(p, c, *args, **kwargs):
        res = op(p, c, *args, **kwargs)
        p2 = res[0] if isinstance(res, tuple) else res
        return p2, c

    return func


def reframe(move: Callable, op: Callable) -> Callable:
    """Navigate with ``move``, apply ``op`` there, then restore the frame —
    the pattern that recreates linear-time (ELEVATE-style) references."""
    return savec(seq(nav(move), op))
