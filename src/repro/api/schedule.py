"""First-class, composable schedules.

The paper's thesis is that scheduling languages are *grown in user space*
from fine-grained primitives.  This module reifies that user space: a
:class:`Schedule` is a value describing a transformation pipeline, built from

* **lifted operations** — every ``@scheduling_primitive`` in the registry is
  available in curried form on the :data:`S` namespace
  (``S.divide_loop('i', 8, ['io', 'ii'])`` returns a ``Schedule``), library
  operations register themselves with :func:`register_op` to appear
  alongside them (``S.vectorize``, ``S.tile2D``, …), and :func:`lift_op`
  lifts any other ``Op``-shaped function,
* **two combinators** — :func:`seq` (also ``a >> b``) and :func:`try_`, which
  recovers from a refusal through the one :func:`attempt`.  A traversal, a
  repeat or a fallback is user code: the paper's combinators of
  :mod:`repro.stdlib.higher_order` and :mod:`repro.stdlib.elevate` written in
  plain Python, and the function lifted with :func:`lift_op`,
* **named knobs** — :func:`~repro.api.knobs.knob` placeholders resolved at
  apply time, making one ``Schedule`` value a whole parameter family.

Applying a schedule (``p >> sched`` / ``sched.apply(p, knobs={...})``)
produces the transformed procedure and a structured :class:`~repro.api.trace.
Trace` that serializes to JSON and replays; results are memoisable in a
:class:`~repro.api.cache.ReplayCache` keyed on ``(procedure digest, schedule
fingerprint)`` (:func:`repro.ir.printing.procedure_digest`).

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

A step is fingerprinted by its kind, its operation's name and its
arguments; the lifted function itself is named by that name only, so two
functions lifted under one name are one schedule.  A callable *argument* is
fingerprinted by its module-qualified name, its code (bytecode, constants
and names, nested code included), its defaults and the values in its
closure cells, each encoded like any other argument.  Two closures made by
one factory with different captured values therefore get different
fingerprints; the globals a callable reads are not covered.

The two combinators nest like any other value:

>>> from repro.api import S, seq, try_
>>> seq(S.simplify(), try_(S.unroll_loop("i"))).describe()
"simplify() >> try_(unroll_loop('i'))"
"""

from __future__ import annotations

import hashlib
import json
import re
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..core.procedure import Procedure
from ..errors import InvalidCursorError, SchedulingError
from ..ir.printing import procedure_digest
from ..primitives import _base as _prim_base
from .knobs import Knob, KnobError, collect_knobs, resolve_value
from .serialize import encode_arg
from .trace import Trace, TraceRecorder

__all__ = [
    "Schedule",
    "Step",
    "S",
    "register_op",
    "lift_op",
    "seq",
    "attempt",
    "try_",
    "try_op",
]


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

    Compose with ``a >> b`` (sequencing) and :func:`try_`; apply with
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
            out = self._run(proc, env).as_successor_of(proc)
        trace = recorder.prune(proc, out)
        trace.schedule = self.describe()
        trace.fingerprint = fp
        trace.proc_name = proc.name()
        trace.initial = procedure_digest(proc._root)
        trace.final = procedure_digest(out._root)
        if cache is not None:
            cache.put(proc, fp, out, trace)
        return out, trace

    def _run(self, proc: Procedure, knobs: Dict[str, object]) -> Procedure:
        raise NotImplementedError

    # -- introspection ---------------------------------------------------------

    def knobs(self) -> Set[Knob]:
        """All knobs reachable from this schedule."""
        return set()

    def knob_defaults(self) -> Dict[str, object]:
        return {k.name: k.default for k in self.knobs()}

    def describe(self) -> str:
        raise NotImplementedError

    def _fp(self):
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

    def __repr__(self) -> str:
        return f"<Schedule {self.describe()}>"


class Step(Schedule):
    """One lifted operation: a primitive from the registry or a registered
    library function, with curried arguments (possibly containing knobs).

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

    def _run(self, proc: Procedure, knobs: Dict[str, object]) -> Procedure:
        out = self.fn(proc, *resolve_value(self.args, knobs), **resolve_value(self.kwargs, knobs))
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
        # the name stands for the function only when the registry holds that
        # very function under it; anything else lifted under a name (a
        # lambda, a shadowing function) is named by its code
        registered = _prim_base.PRIMITIVE_REGISTRY.get(self.name) or LIBRARY_REGISTRY.get(self.name)
        op = self.name if registered is self.fn else {"$fn": _fn_token(self.fn)}
        return ["step", self.kind, op, _fp_encode(list(self.args)), _fp_encode(self.kwargs)]


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

    def _run(self, proc: Procedure, knobs: Dict[str, object]) -> Procedure:
        for s in self.steps:
            proc = s._run(proc, knobs)
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

    The one place a refusal is recovered from: :func:`try_`, the paper's
    ``repeat`` / ``try_else`` in :mod:`repro.stdlib.higher_order` and every
    lenient step of the libraries come through here, so a refusal is never
    silent.  Whatever the attempt recorded is rolled back to one
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
    """Apply the inner schedule; when it refuses (see :func:`attempt`), do
    nothing."""

    def __init__(self, primary: Schedule):
        self.primary = primary

    def _run(self, proc: Procedure, knobs: Dict[str, object]) -> Procedure:
        out = attempt(f"try_({self.primary.describe()})", self.primary._run, proc, knobs)
        return proc if out is None else out

    def knobs(self) -> Set[Knob]:
        return self.primary.knobs()

    def describe(self) -> str:
        return f"try_({self.primary.describe()})"

    def _fp(self):
        # the third slot is kept (always None) so every recorded digest stays put
        return ["try", self.primary._fp(), None]


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


def try_(sched_: Schedule) -> Schedule:
    """Apply ``sched_``; on failure roll back and do nothing.  The failed
    branch's trace entries are replaced by a structured ``recovered`` record.

    >>> from repro.api import S, try_
    >>> from repro.blas import LEVEL1_KERNELS
    >>> p = LEVEL1_KERNELS["saxpy"]
    >>> out = try_(S.unroll_loop("i")).apply(p)    # symbolic bound: fails
    >>> str(out) == str(p)                         # ... and rolls back to p
    True
    """
    return TryElse(sched_)


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


# ---------------------------------------------------------------------------
# Lifting: the S namespace and register_op
# ---------------------------------------------------------------------------

# library operations (user-level Ops) registered alongside the primitives
LIBRARY_REGISTRY: Dict[str, Callable] = {}


def register_op(fn: Callable, name: Optional[str] = None) -> Callable:
    """Register a user-level scheduling operation (``Op = Proc × ... → Proc``)
    so it appears on the :data:`S` namespace next to the primitives.

    Returns ``fn`` unchanged, so it is usable as a decorator.  Registering
    the same function again is a no-op; a *different* function under a taken
    name is refused, since Schedule values already built name the first.

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
    if LIBRARY_REGISTRY.setdefault(opname, fn) is not fn:
        raise ValueError(f"register_op: {opname!r} is already registered to another function")
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
