"""Shared machinery for scheduling primitives.

Every primitive has the type ``Op = Proc × Cursor × ... → Proc`` (Section 3.2):
it takes a :class:`Procedure`, reference arguments (cursors or pattern
strings), and returns a new, functionally equivalent :class:`Procedure`.
Primitives raise :class:`SchedulingError` when their safety conditions cannot
be established.

This module provides

* the ``@scheduling_primitive`` decorator — argument validation, implicit
  cursor forwarding (``expand_dim(p, c, ...)`` is shorthand for
  ``expand_dim(p, p.forward(c), ...)``), and rewrite counting,
* the coercers every primitive resolves its arguments with: ``to_*_cursor``
  for references, :func:`to_expr` for expressions.

Writing a scheduling primitive
==============================

A primitive has three phases: **resolve** its arguments (references to
cursors, expression arguments to IR expressions), **check** its safety
conditions, and **edit** the tree through a transactional
:class:`~repro.ir.edit.EditSession`.  The session records atomic edits
(insert / delete / replace / wrap / move / expression / field), applies them
eagerly to a working tree, and on ``finish()`` derives the successor
``Procedure`` — the rewritten AST *and* the cursor-forwarding function are
produced from the same edit objects, so they cannot drift apart.  Never build
the new root or a forwarding trace by hand.

The skeleton (this is, modulo checks, the real ``cut_loop``)::

    @scheduling_primitive
    def cut_loop(proc, loop, cut_point):
        # 1. resolve: references (cursors or pattern strings) to cursors,
        #    expression arguments (int / str / IR node) to IR expressions
        #    whose names are bound in the scope of the target
        loop = to_loop_cursor(proc, loop)
        cut_point = to_expr(proc, cut_point, loop._path)
        node = loop._node()

        # 2. establish safety under the enclosing facts
        env = proc_fact_env(proc, loop._path)
        require(prove(...lo <= cut_point <= hi...), "cut_loop: ...")

        # 3. build the replacement statements (new nodes around shared
        #    subtrees: nothing reachable from `proc` is ever assigned to) ...
        first  = N.For(node.iter, node.lo, cut_point, node.body, ...)
        second = N.For(..., cut_point, node.hi, ...)

        # 4. ... and run them through one edit session
        session = EditSession(proc)
        session.replace(loop, [first, second], lambda off, rest: (0, rest))
        return session.finish()

A primitive never parses a string or wraps an ``int`` in a ``Const`` by hand:
step 1 is nothing but ``to_*`` calls, and it is the only place a name becomes
a symbol.  Every check is unconditional — there is no unchecked mode.

The optional ``inner_map(offset, rest)`` of ``replace`` forwards cursors that
pointed *inside* the replaced range: ``offset`` is the statement's index
relative to the range, ``rest`` the path below it; return the new
``(offset, rest)`` or ``None`` to invalidate.  Without it, inner cursors
survive only when the range length is unchanged.

Before the edit engine, each primitive performed this surgery twice — once
with raw ``replace_stmts`` calls and once as a hand-built trace of forwarding
edits, kept in sync by hand at every call site::

    # OLD (pre-EditSession):
    new_root = replace_stmts(proc._root, owner, attr, idx, 1, [first, second])
    trace = <hand-built list of BlockRewrite forwarding records>
    return proc._derive(new_root, trace.forward_fn())

Multi-step primitives simply record several edits in one session (see
``delete_pass`` or ``reuse_buffer``); coordinates given as cursors are
forwarded through the session's earlier edits automatically.  Sessions are
for primitives only: the scheduling libraries act through the checked
primitives and never open one (``tests/test_layering.py``).

Lifting into ``repro.api``
==========================

Nothing further is required to make a primitive available to the combinator
API: the ``@scheduling_primitive`` decorator records the wrapper in
:data:`PRIMITIVE_REGISTRY`, and :data:`repro.api.S` auto-lifts every entry
into curried, ``Schedule``-returning form — ``S.cut_loop('i', 4)`` is a
first-class value composable with ``seq``/``try_``/``at`` and parameterisable
with ``knob(...)`` placeholders.  Two consequences for primitive authors:

* keep reference arguments acceptable as *pattern strings* as well as
  cursors, and expression arguments as surface-syntax strings as well as IR
  nodes (the ``to_*`` coercers do this for you) — serialized traces carry
  IR-node arguments as their surface syntax and :func:`to_expr` re-binds them
  in the scope of the target on replay;
* raise :class:`SchedulingError` (not bare exceptions) for recoverable
  failures — the ``try_``/``try_op``/``repeat`` combinators and trace rollback treat it
  as the unit of recovery, exactly like hand-written ``try/except`` schedules.

Library functions built *from* primitives join the same namespace with
:func:`repro.api.register_op` (see ``stdlib/tiling.py``), so grown vocabulary
is indistinguishable from built-in vocabulary — the paper's Section 6 story.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Union

from .. import obs
from ..analysis.linear import FactEnv
from ..core.procedure import Procedure
from ..cursors.cursor import (
    AllocCursor,
    ArgCursor,
    BlockCursor,
    Cursor,
    ExprCursor,
    ForCursor,
    GapCursor,
    InvalidCursor,
    StmtCursor,
    make_stmt_cursor,
)
from ..errors import InvalidCursorError, ParseError, SchedulingError, cursor_location
from ..frontend.parser import parse_expr_fragment
from ..ir import nodes as N
from ..ir.build import get_node
from ..ir.syms import Sym
from ..ir.types import f64, index_t, int_t

__all__ = [
    "scheduling_primitive",
    "PRIMITIVE_REGISTRY",
    "require",
    "to_stmt_cursor",
    "to_loop_cursor",
    "to_block_cursor",
    "to_gap_cursor",
    "to_alloc_cursor",
    "to_expr_cursor",
    "proc_fact_env",
    "const",
    "to_expr",
    "block_coords",
    "stmt_coords",
]


#: Every scheduling primitive, keyed by name — populated by the decorator
#: below and auto-lifted into curried Schedule form by :data:`repro.api.S`.
PRIMITIVE_REGISTRY: dict = {}


def _annotate_error(err: Exception, primitive: str) -> None:
    """Tag a scheduling/cursor error with the primitive it escaped from, and
    make sure the message names it (innermost primitive wins)."""
    if getattr(err, "primitive", None) is not None:
        return
    err.primitive = primitive
    msg = str(err)
    if not msg.startswith(f"{primitive}:") and not msg.startswith(f"{primitive} "):
        err.args = (f"{primitive}: {msg}",)


def scheduling_primitive(fn: Callable) -> Callable:
    """Decorator marking a function as a scheduling primitive."""

    @functools.wraps(fn)
    def wrapper(proc, *args, **kwargs):
        if not isinstance(proc, Procedure):
            raise TypeError(
                f"{fn.__name__}: first argument must be a Procedure, got {type(proc).__name__}"
            )
        # every application is counted and told to this thread's watchers
        # (rewrite counters, trace recorders) as begin, then commit or fail
        obs.primitive_begin(fn.__name__, proc, args, kwargs)
        try:
            result = fn(proc, *args, **kwargs)
        except BaseException as err:  # internal errors too: watchers close their state
            if isinstance(err, (SchedulingError, InvalidCursorError)):
                _annotate_error(err, fn.__name__)
            obs.primitive_fail(err)
            raise
        obs.primitive_commit(result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.is_scheduling_primitive = True
    PRIMITIVE_REGISTRY[fn.__name__] = wrapper
    return wrapper


def require(cond: bool, msg: str) -> None:
    """Raise :class:`SchedulingError` unless ``cond`` holds."""
    if not cond:
        raise SchedulingError(msg)


def _forwarded(proc: Procedure, cursor: Cursor) -> Cursor:
    """Implicitly forward a cursor into ``proc``'s reference frame."""
    if cursor._proc is proc:
        return cursor
    fwd = proc.forward(cursor)
    if isinstance(fwd, InvalidCursor):
        raise InvalidCursorError(
            "cursor was invalidated by an earlier transformation"
            f" (target was: {cursor_location(cursor)})"
        )
    return fwd


def to_stmt_cursor(proc: Procedure, ref, kinds=None) -> StmtCursor:
    """Coerce ``ref`` (cursor or pattern string) to a statement cursor."""
    if isinstance(ref, str):
        bare_name = ref.replace("_", "a").replace("#", "").replace(" ", "").isalnum() and not any(
            ch in ref for ch in "[]():=+<>*"
        )
        cur = None
        if bare_name:
            try:
                cur = proc.find_loop(ref)
            except InvalidCursorError:
                cur = None
        if cur is None:
            cur = proc.find(ref)
        if isinstance(cur, BlockCursor):
            cur = cur[0]
    elif isinstance(ref, BlockCursor):
        cur = _forwarded(proc, ref)[0]
    elif isinstance(ref, Cursor):
        cur = _forwarded(proc, ref)
    else:
        raise TypeError(f"expected a cursor or pattern string, got {type(ref).__name__}")
    if not isinstance(cur, StmtCursor):
        raise SchedulingError(
            f"expected a statement cursor, got {type(cur).__name__}"
            f" (at: {cursor_location(cur)})"
        )
    if kinds is not None and not isinstance(cur, kinds):
        names = ", ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise SchedulingError(
            f"expected a cursor of kind {names}, got {type(cur).__name__}"
            f" (at: {cursor_location(cur)})"
        )
    return cur


def to_loop_cursor(proc: Procedure, ref) -> ForCursor:
    """Coerce ``ref`` to a loop cursor (accepts loop names like ``'i'``)."""
    if isinstance(ref, str):
        try:
            return proc.find_loop(ref)
        except InvalidCursorError:
            # the name as a pattern matches loops first, in the same order,
            # so what it finds past the loops is never a loop
            cur = proc.find(ref)
            raise SchedulingError(
                f"{ref!r} does not refer to a loop (at: {cursor_location(cur)})"
            )
    cur = to_stmt_cursor(proc, ref)
    if not isinstance(cur, ForCursor):
        raise SchedulingError(
            f"expected a loop cursor, got {type(cur).__name__} (at: {cursor_location(cur)})"
        )
    return cur


def to_block_cursor(proc: Procedure, ref) -> BlockCursor:
    """Coerce ``ref`` to a block cursor (single statements become 1-blocks)."""
    if isinstance(ref, str):
        cur = proc.find(ref)
    elif isinstance(ref, Cursor):
        cur = _forwarded(proc, ref)
    else:
        raise TypeError(f"expected a cursor or pattern string, got {type(ref).__name__}")
    if isinstance(cur, BlockCursor):
        return cur
    if isinstance(cur, StmtCursor):
        return cur.as_block()
    raise SchedulingError(f"expected a block of statements, got {type(cur).__name__}")


def to_gap_cursor(proc: Procedure, ref) -> GapCursor:
    if isinstance(ref, GapCursor):
        return _forwarded(proc, ref)
    if isinstance(ref, (str, StmtCursor, BlockCursor)):
        cur = to_block_cursor(proc, ref)
        return cur.after()
    raise TypeError(f"expected a gap cursor, got {type(ref).__name__}")


def to_alloc_cursor(proc: Procedure, ref) -> Union[AllocCursor, ArgCursor]:
    """Coerce ``ref`` (cursor, buffer name, or pattern) to an allocation cursor."""
    if isinstance(ref, str) and ":" not in ref:
        cur = proc.find_alloc_or_arg(ref)
    elif isinstance(ref, str):
        cur = proc.find(ref)
        if isinstance(cur, BlockCursor):
            cur = cur[0]
    elif isinstance(ref, Cursor):
        cur = _forwarded(proc, ref)
        if isinstance(cur, BlockCursor):
            cur = cur[0]
    else:
        raise TypeError(f"expected a cursor or buffer name, got {type(ref).__name__}")
    if not isinstance(cur, (AllocCursor, ArgCursor)):
        raise SchedulingError(
            f"expected an allocation or argument, got {type(cur).__name__}"
            f" (at: {cursor_location(cur)})"
        )
    return cur


def to_expr_cursor(proc: Procedure, ref) -> ExprCursor:
    if isinstance(ref, str):
        cur = proc.find(ref)
    elif isinstance(ref, Cursor):
        cur = _forwarded(proc, ref)
    else:
        raise TypeError(f"expected a cursor or pattern string, got {type(ref).__name__}")
    if not isinstance(cur, ExprCursor):
        raise SchedulingError(
            f"expected an expression cursor, got {type(cur).__name__}"
            f" (at: {cursor_location(cur)})"
        )
    return cur


def proc_fact_env(proc: Procedure, at_path=()):
    """The fact environment at ``at_path``: the procedure's assertions plus the
    loop bounds and guard conditions enclosing it.  Memoised on the immutable
    root per path (like :func:`repro.ir.build.allocs_by_sym`), each path
    extending its parent's environment; the result is shared, so extend it
    with ``with_loop`` (a copy), never in place."""
    envs = N.memo(proc._root, "_fact_envs", lambda _root: {})
    at_path = tuple(at_path)
    env = envs.get(at_path)
    if env is None:
        if not at_path:
            env = FactEnv.from_proc(proc._root)
        else:
            env = proc_fact_env(proc, at_path[:-1])
            if at_path[-1][0] == "body":
                node = get_node(proc._root, at_path[:-1])
                if isinstance(node, N.For):
                    env = env.with_loop(node.iter, node.lo, node.hi)
                elif isinstance(node, N.If):
                    env = env.copy()
                    env.add_predicate(node.cond)
        envs[at_path] = env
    return env


def const(v: int) -> N.Const:
    """The integer literal ``v`` as an IR node."""
    return N.Const(v, int_t)


def to_expr(proc: Procedure, value, at_path=()) -> N.Expr:
    """Coerce an expression argument to an IR expression: numbers become
    constants, IR expressions (and expression cursors, symbols) are taken as
    they are, and a surface-syntax string is parsed with its names resolved
    exactly in the scope of ``at_path`` — the procedure's arguments, the
    iterators of the enclosing loops, and the buffers allocated by earlier
    siblings on the way down.  After tiling several loops often share a name
    (the vector loop and its tail are both ``ii``); only the target's scope
    picks the one the caller means, which is also what makes a serialized
    trace (expressions travel as strings) replay to the same procedure."""
    if isinstance(value, str):
        try:
            return parse_expr_fragment(value, proc._root, at_path)
        except (ParseError, SyntaxError) as err:
            raise SchedulingError(f"cannot resolve {value!r} in the scope of its target: {err}") from None
    if isinstance(value, N.Expr):
        return value
    if isinstance(value, ExprCursor):
        return value._node()
    if isinstance(value, Sym):
        return N.Read(value, [], index_t)
    if isinstance(value, int) and not isinstance(value, bool):
        return const(value)
    if isinstance(value, float):
        return N.Const(value, f64)
    raise SchedulingError(f"expected an expression, a number or a string, got {type(value).__name__}")


def block_coords(block: BlockCursor):
    """(owner_path, attr, lo, hi) of a block cursor."""
    return block._owner_path, block._attr, block._lo, block._hi


def stmt_coords(stmt: StmtCursor):
    """(owner_path, attr, idx) of a statement cursor."""
    attr, idx = stmt._path[-1]
    return stmt._path[:-1], attr, idx
