"""First-class, composable schedules.

The paper's thesis is that scheduling languages are *grown in user space*
from fine-grained primitives.  This module reifies that user space: a
:class:`Schedule` is a value describing a transformation pipeline, built from

* **lifted primitives** — every ``@scheduling_primitive`` in the registry is
  available in curried form on the :data:`S` namespace
  (``S.divide_loop('i', 8, ['io', 'ii'])`` returns a ``Schedule``), and
  library operations register themselves with :func:`register_op` to appear
  alongside them (``S.vectorize``, ``S.tile2D``, …),
* **combinators** — :func:`seq` (also ``a >> b``), :func:`try_` /
  :func:`or_else` (also ``a | b``), :func:`repeat_until_fail` (all of which
  recover from a refusal through the one :func:`attempt`),
  :func:`at` (re-anchor on a pattern/cursor), and the traversal combinators
  :func:`topdown` / :func:`bottomup` / :func:`innermost_loops` absorbed from
  the ELEVATE reproduction in :mod:`repro.stdlib.elevate`,
* **named knobs** — :func:`~repro.api.knobs.knob` placeholders resolved at
  apply time, making one ``Schedule`` value a whole parameter family.

Applying a schedule (``p >> sched`` / ``sched.apply(p, knobs={...})``)
produces the transformed procedure and a structured :class:`~repro.api.trace.
Trace` that serializes to JSON and replays; results are memoisable in a
:class:`~repro.api.cache.ReplayCache` keyed on ``(proc struct_hash, schedule
fingerprint)``.

Schedule values are immutable.  No field of a :class:`Schedule` node is
assigned after its constructor returns, and the containers it holds are
never mutated: :class:`Seq` keeps its steps as a tuple copied from the
argument, :class:`Step` its positional arguments as a tuple, and the
combinators build new nodes instead of editing old ones.  The argument
values themselves (a list of loop names, a knob, a callable) are held as
given; mutating one after it was passed in is outside the contract.  What
is memoised on a value — the canonical JSON of its structure, its sorted
knobs and their names, and the digest per knob binding (see
:meth:`Schedule.fingerprint`) — is a pure function of that content, so it
never goes stale and is safe to fill from concurrent threads: the worst
race is two threads storing the same value.  A warm ``apply`` therefore
costs knob resolution, one memo probe and one cache probe.

A callable inside a schedule (an :func:`at` target, a ``here`` navigation,
a traversal's ``select``) is fingerprinted by its module-qualified name,
its code (bytecode, constants and names, nested code included), its
defaults and the values in its closure cells, each encoded like any other
argument.  Two closures made by one factory with different captured values
therefore get different fingerprints; the globals a callable reads are not
covered.

Module-level values: :data:`HERE` is the bare focus placeholder and
:data:`sched` the decorator spelling of :func:`lift_op`:

>>> from repro.api import HERE, here, sched, lift_op
>>> isinstance(HERE, here) and sched is lift_op
True
"""

from __future__ import annotations

import hashlib
import json
import re
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..core.procedure import Procedure
from ..cursors.cursor import Cursor, ForCursor, InvalidCursor
from ..errors import InvalidCursorError, SchedulingError
from ..primitives import _base as _prim_base
from .knobs import Knob, KnobError, collect_knobs, resolve_value
from .serialize import encode_arg
from .trace import Trace, TraceRecorder, state_hash

__all__ = [
    "Schedule",
    "Step",
    "S",
    "HERE",
    "here",
    "register_op",
    "lift_op",
    "sched",
    "seq",
    "attempt",
    "try_",
    "try_op",
    "or_else",
    "repeat_until_fail",
    "at",
    "topdown",
    "bottomup",
    "innermost_loops",
]


# ---------------------------------------------------------------------------
# The focus placeholder
# ---------------------------------------------------------------------------


class here:
    """Placeholder for the cursor a schedule is currently anchored at.

    ``HERE`` resolves to the focus cursor established by :func:`at` or a
    traversal combinator; ``here(lambda c: c.after())`` resolves to a
    navigation from it.  The focus is forwarded into the current procedure
    before each use, so edits between steps are transparent.

    >>> from repro.api import S, at, HERE, here
    >>> from repro.blas import LEVEL1_KERNELS
    >>> s = at("i", S.divide_loop(HERE, 8, ["io", "ii"]))
    >>> out = s.apply(LEVEL1_KERNELS["saxpy"])
    >>> out.find_loop("io").name()
    'io'
    >>> here(lambda c: c.body())                  # a navigation from the focus
    HERE
    """

    def __init__(self, nav: Optional[Callable] = None, label: str = "HERE"):
        self._nav = nav
        self._label = label

    def _resolve(self, proc: Procedure, focus):
        if focus is None:
            raise SchedulingError(
                "HERE used outside of an at(...)/traversal combinator — no focus cursor is bound"
            )
        cur = focus
        if isinstance(cur, Cursor) and cur._proc is not proc:
            cur = proc.forward(cur)
        if isinstance(cur, InvalidCursor):
            raise InvalidCursorError("the schedule's focus cursor was invalidated")
        return self._nav(cur) if self._nav is not None else cur

    def __repr__(self) -> str:
        return self._label


#: The bare focus cursor (see :class:`here`).
HERE = here()


class _Ctx:
    """Per-application state threaded through combinators."""

    __slots__ = ("knobs", "focus")

    def __init__(self, knobs: Optional[Dict[str, object]] = None, focus=None):
        self.knobs = knobs
        self.focus = focus

    def with_focus(self, focus) -> "_Ctx":
        return _Ctx(self.knobs, focus)


def _resolve_args(value, proc: Procedure, ctx: _Ctx):
    """Resolve knobs and focus placeholders inside an argument tree."""
    return resolve_value(
        value,
        ctx.knobs,
        leaf=lambda v: v._resolve(proc, ctx.focus) if isinstance(v, here) else v,
    )


_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _const_token(const) -> str:
    """A process-stable spelling of one code constant."""
    if isinstance(const, CodeType):
        return _code_digest(const)
    if isinstance(const, tuple):
        return "(" + ",".join(_const_token(c) for c in const) + ")"
    if isinstance(const, frozenset):  # iteration order follows the hash seed
        return "frozenset(" + ",".join(sorted(_const_token(c) for c in const)) + ")"
    return repr(const)


def _code_digest(code: CodeType) -> str:
    """A digest of what a code object does: its bytecode, constants and the
    names the bytecode indexes, nested code included — but not its line."""
    h = hashlib.sha256(code.co_code)
    h.update(repr((code.co_names, code.co_varnames, code.co_freevars)).encode())
    h.update(_const_token(code.co_consts).encode())
    return h.hexdigest()[:16]


def _fn_token(fn, seen=()) -> str:
    """A process-stable identity for a callable: its module-qualified name
    and, for a Python function, a digest of its code, defaults and closure
    cells, so two closures of one factory do not collide."""
    mod = getattr(fn, "__module__", "?")
    qn = getattr(fn, "__qualname__", getattr(fn, "__name__", None))
    if qn is None:
        return _HEX_ADDR.sub("0x", repr(fn))
    code = getattr(fn, "__code__", None)
    if not isinstance(code, CodeType):
        return f"{mod}.{qn}"
    if id(fn) in seen:  # a closure that captures itself
        return f"{mod}.{qn}#rec"
    seen = seen + (id(fn),)
    cells = []
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            cells.append(_fp_encode(cell.cell_contents, seen))
        except ValueError:  # an empty cell
            cells.append({"$empty": None})
    parts = [
        _code_digest(code),
        cells,
        _fp_encode(getattr(fn, "__defaults__", None), seen),
        _fp_encode(getattr(fn, "__kwdefaults__", None), seen),
    ]
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return f"{mod}.{qn}#{hashlib.sha256(blob.encode()).hexdigest()[:16]}"


def _fp_encode(value, seen=()):
    """Canonicalise an argument for fingerprinting (process-stable);
    ``seen`` holds the functions being encoded, for self-capturing closures."""
    if isinstance(value, here):
        return {"$here": _fn_token(value._nav, seen) if value._nav else None}
    if callable(value) and not isinstance(value, type):
        return {"$fn": _fn_token(value, seen)}
    if isinstance(value, (list, tuple)):
        return [_fp_encode(v, seen) for v in value]
    if isinstance(value, dict):
        return {str(k): _fp_encode(v, seen) for k, v in value.items()}
    enc = encode_arg(value, None)
    if isinstance(enc, dict) and "$opaque" in enc:
        # strip memory addresses so reprs are stable across processes
        return {"$opaque": _HEX_ADDR.sub("0x", enc["$opaque"])}
    return enc


#: Bound on the per-value memo of binding digests; a full memo is cleared.
_DIGEST_LIMIT = 256

_KEYABLE = (str, int, float, bool, type(None))


def _binding_key(values):
    """The memo key of a resolved knob binding: ``(type, value)`` per knob,
    so ``1``, ``1.0`` and ``True`` stay distinct (a float by its repr, so
    ``-0.0`` and ``nan`` do too); ``None`` when a value is not a plain
    scalar, and the digest is computed afresh."""
    key = []
    for v in values:
        t = type(v)
        if t not in _KEYABLE:
            return None
        key.append((t, repr(v) if t is float else v))
    return tuple(key)


class _Identity:
    """What a Schedule value derives once from its (immutable) content: the
    canonical JSON of its structure, its knobs sorted by name, their names,
    and the memo of digests per resolved binding."""

    __slots__ = ("fp_json", "knobs", "names", "digests")

    def __init__(self, sched: "Schedule"):
        self.fp_json = json.dumps(sched._fp(), sort_keys=True, default=repr)
        self.knobs = tuple(sorted(sched.knobs(), key=lambda k: k.name))
        self.names = frozenset(k.name for k in self.knobs)
        self.digests: Dict[tuple, str] = {}


# ---------------------------------------------------------------------------
# Schedule and its combinator node types
# ---------------------------------------------------------------------------


class Schedule:
    """A first-class, composable scheduling transformation (abstract base).

    Compose with ``a >> b`` (sequencing) and ``a | b`` (fallback); apply with
    ``p >> sched``, :meth:`apply`, or :meth:`apply_traced`.

    >>> from repro.api import S, knob
    >>> from repro.blas import LEVEL1_KERNELS
    >>> s = S.divide_loop("i", knob("w", 8), ["io", "ii"]) >> S.unroll_loop("ii")
    >>> p = s.apply(LEVEL1_KERNELS["saxpy"], w=4)     # one value, any knobs
    >>> p.find_loop("io").name()
    'io'
    >>> s.fingerprint() != s.fingerprint({"w": 4})    # knobs key the cache
    True
    """

    # -- application -----------------------------------------------------------

    def apply(
        self,
        proc: Procedure,
        knobs: Optional[Dict[str, object]] = None,
        *,
        cache=None,
        **knob_kwargs,
    ) -> Procedure:
        """Apply this schedule to ``proc`` and return the new procedure.

        ``knobs`` (or keyword arguments) bind knob values; ``cache`` is an
        optional :class:`~repro.api.cache.ReplayCache`.
        """
        return self.apply_traced(proc, knobs, cache=cache, **knob_kwargs)[0]

    def check_knobs(self, names) -> None:
        """Raise :class:`KnobError` if ``names`` (a knob environment, or any
        iterable of names) mentions a knob this schedule does not declare."""
        if not names:
            return
        declared = self._identity().names
        unknown = sorted(set(names) - declared)
        if unknown:
            import difflib

            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, declared, n=1, cutoff=0.5)
                hints.append(f"{name!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
            raise KnobError(
                f"unknown knob(s) {', '.join(hints)}; this schedule declares "
                f"{sorted(declared) if declared else 'no knobs'}"
            )

    def apply_traced(
        self,
        proc: Procedure,
        knobs: Optional[Dict[str, object]] = None,
        *,
        cache=None,
        **knob_kwargs,
    ) -> Tuple[Procedure, Trace]:
        """Like :meth:`apply`, but also return the structured :class:`Trace`."""
        if not isinstance(proc, Procedure):
            raise TypeError(f"Schedule.apply: expected a Procedure, got {type(proc).__name__}")
        env = dict(knobs or {})
        env.update(knob_kwargs)
        self.check_knobs(env)
        fp = self.fingerprint(env)
        if cache is not None:
            hit = cache.get(proc, fp)
            if hit is not None:
                return hit
        recorder = TraceRecorder()
        with recorder:
            # one application is one step of the branching time model: the
            # versions its primitives went through are not kept behind it
            out = self._run(proc, _Ctx(knobs=env)).as_successor_of(proc)
        trace = recorder.trace
        trace.schedule = self.describe()
        trace.fingerprint = fp
        trace.proc_name = proc.name()
        trace.initial = state_hash(proc)
        trace.final = state_hash(out)
        if cache is not None:
            cache.put(proc, fp, out, trace)
        return out, trace

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- introspection ---------------------------------------------------------

    def knobs(self) -> Set[Knob]:
        """All knobs reachable from this schedule."""
        return set()

    def knob_defaults(self) -> Dict[str, object]:
        return {k.name: k.default for k in self.knobs()}

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def _fp(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _identity(self) -> _Identity:
        ident = self.__dict__.get("_ident")
        if ident is None:
            ident = self._ident = _Identity(self)
        return ident

    def fingerprint(self, knobs: Optional[Dict[str, object]] = None) -> str:
        """A stable hex digest of the schedule's structure plus the knob
        values it would resolve under ``knobs`` — the cache key component.

        The structure is encoded once per value and the digest once per
        binding (see the module docstring); the bytes hashed are those of
        ``json.dumps({"s": self._fp(), "knobs": resolved}, sort_keys=True)``.
        """
        ident = self._identity()
        values = []
        for k in ident.knobs:
            try:
                values.append(k.resolve(knobs))
            except KnobError:
                values.append(None)
        key = _binding_key(values)
        digest = ident.digests.get(key) if key is not None else None
        if digest is None:
            resolved = {k.name: v for k, v in zip(ident.knobs, values)}
            knobs_json = json.dumps(resolved, sort_keys=True, default=repr)
            blob = '{"knobs": ' + knobs_json + ', "s": ' + ident.fp_json + "}"
            digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
            if key is not None:
                if len(ident.digests) >= _DIGEST_LIMIT:
                    ident.digests.clear()
                ident.digests[key] = digest
        return digest

    # -- composition -----------------------------------------------------------

    def __rshift__(self, other: "Schedule") -> "Schedule":
        if isinstance(other, Schedule):
            return Seq.of(self, other)
        return NotImplemented

    def __rrshift__(self, left):
        # `proc >> sched`: Procedure (a layer below) defines no __rshift__
        if isinstance(left, Procedure):
            return self.apply(left)
        return NotImplemented

    def __or__(self, other: "Schedule") -> "Schedule":
        if isinstance(other, Schedule):
            return TryElse(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<Schedule {self.describe()}>"


class Step(Schedule):
    """One lifted operation: a primitive from the registry or a registered
    library function, with curried arguments (possibly containing knobs and
    focus placeholders).

    >>> from repro.api import S, Step
    >>> step = S.divide_loop("i", 8, ["io", "ii"])
    >>> isinstance(step, Step), step.name, step.kind
    (True, 'divide_loop', 'primitive')
    >>> step.describe()
    "divide_loop('i', 8, ['io', 'ii'])"
    """

    def __init__(self, name: str, fn: Callable, args: Sequence, kwargs: Dict, kind: str = "primitive"):
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs)
        self.kind = kind

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        args = _resolve_args(self.args, proc, ctx)
        kwargs = _resolve_args(self.kwargs, proc, ctx)
        out = self.fn(proc, *args, **kwargs)
        if isinstance(out, tuple):  # library ops may return (proc, cursors)
            out = out[0]
        if not isinstance(out, Procedure):
            raise SchedulingError(f"{self.name}: lifted operation did not return a Procedure")
        return out

    def knobs(self) -> Set[Knob]:
        out = collect_knobs(self.args)
        collect_knobs(self.kwargs, out)
        return out

    def describe(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"{self.name}({', '.join(parts)})"

    def _fp(self):
        return ["step", self.kind, self.name, _fp_encode(list(self.args)), _fp_encode(self.kwargs)]


class Seq(Schedule):
    """Sequential composition; ``steps`` is a tuple."""

    def __init__(self, steps: Sequence[Schedule]):
        self.steps = tuple(steps)

    @classmethod
    def of(cls, *scheds: Schedule) -> "Seq":
        flat: List[Schedule] = []
        for s in scheds:
            if isinstance(s, Seq):
                flat.extend(s.steps)
            else:
                flat.append(s)
        return cls(flat)

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        for s in self.steps:
            proc = s._run(proc, ctx)
        return proc

    def knobs(self) -> Set[Knob]:
        out: Set[Knob] = set()
        for s in self.steps:
            out |= s.knobs()
        return out

    def describe(self) -> str:
        return " >> ".join(s.describe() for s in self.steps)

    def _fp(self):
        return ["seq", [s._fp() for s in self.steps]]


def attempt(note: str, op: Callable, *args, **kwargs):
    """``op(*args, **kwargs)``, or ``None`` when ``op`` *refuses* — raises
    :class:`SchedulingError` or :class:`InvalidCursorError`.

    The one place a refusal is recovered from: every combinator below, the
    paper's ``repeat`` / ``try_else`` in :mod:`repro.stdlib.higher_order` and
    every lenient step of the libraries come through here, so a refusal is
    never silent.  Whatever the attempt recorded is rolled back to one
    ``recovered`` trace entry carrying ``note``, the primitive that refused
    and its message.  Anything else (a :class:`KnobError`, a bug) escapes.

    >>> from repro.api import attempt
    >>> from repro.blas import LEVEL1_KERNELS
    >>> from repro.primitives import divide_loop, unroll_loop
    >>> p = LEVEL1_KERNELS["saxpy"]
    >>> attempt("unroll", unroll_loop, p, "i") is None      # symbolic bound: refused
    True
    >>> attempt("divide", divide_loop, p, "i", 8, ["io", "ii"]).find_loop("io").name()
    'io'
    """
    marks = [(w, w.checkpoint()) for w in obs.watchers() if isinstance(w, TraceRecorder)]
    try:
        return op(*args, **kwargs)
    except (SchedulingError, InvalidCursorError) as err:
        for recorder, mark in marks:
            recorder.rollback(mark, note=note, error=str(err))
        return None


class TryElse(Schedule):
    """Apply the primary schedule; when it refuses (see :func:`attempt`),
    apply the fallback (or do nothing when there is none)."""

    def __init__(self, primary: Schedule, fallback: Optional[Schedule] = None):
        self.primary = primary
        self.fallback = fallback

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        out = attempt(f"try_({self.primary.describe()})", self.primary._run, proc, ctx)
        if out is not None:
            return out
        return proc if self.fallback is None else self.fallback._run(proc, ctx)

    def knobs(self) -> Set[Knob]:
        out = self.primary.knobs()
        if self.fallback is not None:
            out = out | self.fallback.knobs()
        return out

    def describe(self) -> str:
        if self.fallback is None:
            return f"try_({self.primary.describe()})"
        return f"({self.primary.describe()} | {self.fallback.describe()})"

    def _fp(self):
        return ["try", self.primary._fp(), self.fallback._fp() if self.fallback else None]


class RepeatUntilFail(Schedule):
    """Apply the inner schedule repeatedly until it raises a scheduling error
    (or stops making progress); the failing iteration is rolled back."""

    def __init__(self, inner: Schedule, max_iters: Optional[int] = None):
        self.inner = inner
        self.max_iters = max_iters

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        count = 0
        cur_state = state_hash(proc)
        while self.max_iters is None or count < self.max_iters:
            nxt = attempt("repeat_until_fail iteration", self.inner._run, proc, ctx)
            if nxt is None:
                break
            # progress is structural, not object identity: a non-failing inner
            # schedule (simplify, a recovering try_) derives a fresh Procedure
            # every round even when it changes nothing
            nxt_state = state_hash(nxt)
            if nxt is proc or nxt_state == cur_state:
                break
            proc, cur_state = nxt, nxt_state
            count += 1
        return proc

    def knobs(self) -> Set[Knob]:
        return self.inner.knobs()

    def describe(self) -> str:
        return f"repeat_until_fail({self.inner.describe()})"

    def _fp(self):
        return ["repeat", self.inner._fp(), self.max_iters]


class At(Schedule):
    """Re-anchor the inner schedule's focus (``HERE``) at a target resolved in
    the current procedure: a loop name, a pattern string, a cursor, or a
    callable ``proc -> cursor``."""

    def __init__(self, target, inner: Schedule):
        self.target = target
        self.inner = inner

    def _resolve_target(self, proc: Procedure, ctx: _Ctx):
        t = resolve_value(self.target, ctx.knobs)
        if callable(t) and not isinstance(t, (Cursor, here)):
            return t(proc)
        if isinstance(t, here):
            return t._resolve(proc, ctx.focus)
        if isinstance(t, Cursor):
            cur = t if t._proc is proc else proc.forward(t)
            if isinstance(cur, InvalidCursor):
                raise InvalidCursorError("at(...): target cursor was invalidated")
            return cur
        if isinstance(t, str):
            return _prim_base.to_stmt_cursor(proc, t)
        raise TypeError(f"at(...): unsupported target {t!r}")

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        focus = self._resolve_target(proc, ctx)
        return self.inner._run(proc, ctx.with_focus(focus))

    def knobs(self) -> Set[Knob]:
        out = self.inner.knobs()
        collect_knobs(self.target, out)
        return out

    def describe(self) -> str:
        return f"at({self.target!r}, {self.inner.describe()})"

    def _fp(self):
        return ["at", _fp_encode(self.target), self.inner._fp()]


class Traverse(Schedule):
    """Apply the inner schedule at every site produced by a traversal strategy
    (from :mod:`repro.stdlib.elevate`), skipping sites where it fails —
    the ELEVATE-style ``topdown``/``bottomup`` reified as a combinator."""

    def __init__(self, traversal: str, inner: Schedule, select: Optional[Callable] = None):
        self.traversal = traversal
        self.inner = inner
        self.select = select

    def _sites(self, proc: Procedure):
        from ..stdlib import elevate

        gen = getattr(elevate, self.traversal)
        sites = []
        for top in proc.body():
            sites.extend(gen(top))
        return sites

    def _run(self, proc: Procedure, ctx: _Ctx) -> Procedure:
        for site in self._sites(proc):
            cur = site if site._proc is proc else proc.forward(site)
            if isinstance(cur, InvalidCursor):
                continue
            if self.select is not None and not self.select(cur):
                continue
            out = attempt(f"{self.traversal} site skipped", self.inner._run, proc, ctx.with_focus(cur))
            if out is not None:
                proc = out
        return proc

    def knobs(self) -> Set[Knob]:
        return self.inner.knobs()

    def describe(self) -> str:
        return f"{self.traversal}({self.inner.describe()})"

    def _fp(self):
        return ["traverse", self.traversal, self.inner._fp(), _fp_encode(self.select)]


# ---------------------------------------------------------------------------
# Combinator constructors (the user-facing spelling)
# ---------------------------------------------------------------------------


def seq(*scheds: Schedule) -> Schedule:
    """Sequential composition of schedules (also spelled ``a >> b``).

    >>> from repro.api import S, seq
    >>> seq(S.divide_loop("i", 4, ["io", "ii"]), S.unroll_loop("ii")).describe()
    "divide_loop('i', 4, ['io', 'ii']) >> unroll_loop('ii')"
    """
    return Seq.of(*scheds)


def try_(sched_: Schedule, fallback: Optional[Schedule] = None) -> Schedule:
    """Apply ``sched_``; on failure roll back and apply ``fallback`` (or
    nothing).  The failed branch's trace entries are replaced by a structured
    ``recovered`` record.

    >>> from repro.api import S, try_
    >>> from repro.blas import LEVEL1_KERNELS
    >>> p = LEVEL1_KERNELS["saxpy"]
    >>> out = try_(S.unroll_loop("i")).apply(p)    # symbolic bound: fails
    >>> str(out) == str(p)                         # ... and rolls back to p
    True
    """
    return TryElse(sched_, fallback)


def try_op(proc: Procedure, op: Callable, *args, **kwargs):
    """The function form of :func:`try_`, for library code written as plain
    Python: ``op(proc, *args, **kwargs)``, or ``proc`` itself when ``op``
    refuses — an :func:`attempt` whose answer to a refusal is "skip the
    step", so "why was this step skipped" is a query of the trace.

    >>> from repro.api import lift_op, try_op
    >>> from repro.blas import LEVEL1_KERNELS
    >>> from repro.primitives import unroll_loop
    >>> p = LEVEL1_KERNELS["saxpy"]
    >>> lenient = lift_op(lambda p: try_op(p, unroll_loop, "i"), "lenient_unroll")
    >>> out, trace = lenient().apply_traced(p)     # symbolic bound: refused
    >>> out is p, [(e.kind, e.primitive) for e in trace.entries]
    (True, [('recovered', 'unroll_loop')])
    """
    out = attempt(f"try_op({getattr(op, '__name__', op)})", op, proc, *args, **kwargs)
    return proc if out is None else out


def or_else(primary: Schedule, fallback: Schedule) -> Schedule:
    """``try_`` with a mandatory fallback (also spelled ``a | b``).

    >>> from repro.api import S, or_else
    >>> or_else(S.unroll_loop("i"), S.simplify()).describe()
    "(unroll_loop('i') | simplify())"
    """
    return TryElse(primary, fallback)


def repeat_until_fail(sched_: Schedule, max_iters: Optional[int] = None) -> Schedule:
    """Apply ``sched_`` until it raises a scheduling error.

    >>> from repro.api import S, repeat_until_fail
    >>> repeat_until_fail(S.lift_scope("jo"), max_iters=3).describe()
    "repeat_until_fail(lift_scope('jo'))"
    """
    return RepeatUntilFail(sched_, max_iters)


def at(target, sched_: Schedule) -> Schedule:
    """Anchor ``sched_``'s ``HERE`` at ``target`` (loop name, pattern, cursor,
    or ``proc -> cursor`` callable).

    >>> from repro.api import S, at, HERE
    >>> from repro.blas import LEVEL1_KERNELS
    >>> out = at("i", S.divide_loop(HERE, 8, ["io", "ii"])).apply(LEVEL1_KERNELS["saxpy"])
    >>> out.find_loop("ii").name()
    'ii'
    """
    return At(target, sched_)


def topdown(sched_: Schedule, select: Optional[Callable] = None) -> Schedule:
    """Apply ``sched_`` at every statement in pre-order (failures skip).

    >>> from repro.api import S, topdown
    >>> topdown(S.simplify()).describe()
    'topdown(simplify())'
    """
    return Traverse("topdown", sched_, select)


def bottomup(sched_: Schedule, select: Optional[Callable] = None) -> Schedule:
    """Apply ``sched_`` at every statement in post-order (failures skip).

    >>> from repro.api import S, bottomup
    >>> bottomup(S.simplify()).describe()
    'bottomup(simplify())'
    """
    return Traverse("bottomup", sched_, select)


def innermost_loops(sched_: Schedule) -> Schedule:
    """Apply ``sched_`` at every innermost loop (failures skip).

    >>> from repro.api import S, innermost_loops, HERE
    >>> innermost_loops(S.divide_loop(HERE, 4, ["o", "v"])).describe()
    "innermost_loops(divide_loop(HERE, 4, ['o', 'v']))"
    """
    return Traverse("innermost_loops", sched_, lambda c: isinstance(c, ForCursor))


# ---------------------------------------------------------------------------
# Lifting: the S namespace and register_op
# ---------------------------------------------------------------------------

# library operations (user-level Ops) registered alongside the primitives
LIBRARY_REGISTRY: Dict[str, Callable] = {}


def register_op(fn: Callable, name: Optional[str] = None) -> Callable:
    """Register a user-level scheduling operation (``Op = Proc × ... → Proc``)
    so it appears on the :data:`S` namespace next to the primitives.

    Returns ``fn`` unchanged, so it is usable as a decorator.

    >>> from repro.api import S, register_op
    >>> from repro.primitives import simplify
    >>> def tidy(proc):
    ...     return simplify(proc)
    >>> _ = register_op(tidy, "tidy_doctest")
    >>> S.tidy_doctest().describe()
    'tidy_doctest()'
    """
    opname = name or fn.__name__
    if opname in _prim_base.PRIMITIVE_REGISTRY:
        raise ValueError(f"register_op: {opname!r} is already a scheduling primitive")
    LIBRARY_REGISTRY[opname] = fn
    return fn


def lift_op(fn: Callable, name: Optional[str] = None, *, register: bool = False) -> Callable:
    """Lift an ``Op``-shaped function into a curried ``Schedule`` factory:
    ``lift_op(vectorize)('i', 8, ...)`` is a :class:`Schedule` value.

    With ``register=True`` the function is also :func:`register_op`'d under
    the same name, so the ``S``-namespace spelling and the returned factory
    cannot drift apart.

    >>> from repro.api import lift_op, Schedule
    >>> from repro.primitives import divide_loop
    >>> divide = lift_op(divide_loop)
    >>> isinstance(divide("i", 8, ["io", "ii"]), Schedule)
    True
    """
    opname = name or getattr(fn, "__name__", "op")
    target = getattr(fn, "__wrapped__", None)
    kind = "primitive" if getattr(fn, "is_scheduling_primitive", False) else "lib"
    if register:
        register_op(fn, opname)

    def factory(*args, **kwargs) -> Step:
        return Step(opname, fn, args, kwargs, kind=kind)

    factory.__name__ = opname
    factory.__doc__ = getattr(target or fn, "__doc__", None)
    factory.is_schedule_factory = True
    return factory


#: Decorator spelling of :func:`lift_op`: ``@sched`` on an Op-shaped function
#: returns a Schedule factory (doctested in the module docstring).
sched = lift_op


class _OpNamespace:
    """``S`` — every scheduling primitive (auto-lifted from the registry in
    :mod:`repro.primitives._base`) plus every :func:`register_op`'d library
    operation, in curried ``Schedule``-returning form.

    >>> from repro.api import S, Schedule
    >>> "divide_loop" in dir(S) and "tile2D" in dir(S)
    True
    >>> isinstance(S.divide_loop("i", 8, ["io", "ii"]), Schedule)
    True
    >>> S.divide_lop                                # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    AttributeError: S: no scheduling primitive or registered op named 'divide_lop'; did you mean ...
    """

    def __getattr__(self, name: str) -> Callable:
        fn = _prim_base.PRIMITIVE_REGISTRY.get(name) or LIBRARY_REGISTRY.get(name)
        if fn is None:
            import difflib

            pool = list(_prim_base.PRIMITIVE_REGISTRY) + list(LIBRARY_REGISTRY)
            close = difflib.get_close_matches(name, pool, n=3, cutoff=0.5)
            hint = f"; did you mean {', '.join(close)}?" if close else ""
            raise AttributeError(f"S: no scheduling primitive or registered op named {name!r}{hint}")
        factory = lift_op(fn, name)
        setattr(self, name, factory)  # memoise
        return factory

    def __dir__(self):
        return sorted(set(list(_prim_base.PRIMITIVE_REGISTRY) + list(LIBRARY_REGISTRY)))

    def __repr__(self):
        return f"<S: {len(_prim_base.PRIMITIVE_REGISTRY)} primitives, {len(LIBRARY_REGISTRY)} library ops>"


S = _OpNamespace()
