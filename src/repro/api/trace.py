"""Structured schedule traces: record, serialize, replay.

Applying a :class:`~repro.api.schedule.Schedule` produces a :class:`Trace` —
the flat sequence of *top-level primitive invocations* the schedule decomposed
into, with resolved arguments, per-invocation atomic-edit counts, and
outcomes.  Combinator structure is deliberately flattened: whatever nesting of
``seq``/``try_``/traversals produced the run, replay only needs the applied
primitives in order, each with arguments valid in the frame of the procedure
at that point.

A recorder is a scheduling watcher (:class:`repro.obs.Watcher`): while it is
active, every outermost primitive call its thread makes is reported to it;
nested primitive calls (a primitive built on other primitives) are *not*
recorded — replaying the outer call re-performs them.  Cursor invalidations
observed during :meth:`Procedure.forward` are recorded as structured
``warning`` entries instead of being silently dropped.  A finished
application keeps only the steps on its path of versions
(:meth:`TraceRecorder.prune`).

Traces serialize to JSON (:meth:`Trace.to_json`) and :func:`replay` re-applies
one against a structurally identical starting procedure, yielding a procedure
structurally equal to the originally scheduled one.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..core.procedure import Procedure
from ..errors import ExoError, cursor_location
from ..ir.printing import procedure_digest
from ..primitives import _base as _prim_base
from .serialize import ReplayError, decode_arg, encode_arg, is_replayable

__all__ = ["TraceEntry", "Trace", "TraceRecorder", "replay", "ReplayError", "state_hash"]

_TRACE_VERSION = 3


def state_hash(proc: Procedure) -> str:
    """The first 16 hex digits of the sha256 of a procedure's printed code:
    the checksum the schedule service sends beside the code in every reply.
    It is not an identity — the print cannot tell shadowed binders or
    same-named callees apart — so traces, fingerprints and every cache name a
    procedure by :func:`repro.ir.printing.procedure_digest` instead.

    >>> from repro.api.trace import state_hash
    >>> from repro.blas import LEVEL1_KERNELS
    >>> h = state_hash(LEVEL1_KERNELS["saxpy"])
    >>> len(h), h == state_hash(LEVEL1_KERNELS["saxpy"])
    (16, True)
    >>> h == state_hash(LEVEL1_KERNELS["sdot"])
    False
    """
    return hashlib.sha256(str(proc).encode()).hexdigest()[:16]


#: the JSON type of each typed trace-entry field, checked when a trace is read
_FIELD_TYPES = {
    "primitive": (str, "a string"),
    "args": (list, "a list"),
    "kwargs": (dict, "a JSON object"),
    "edits": (int, "an integer"),
}


class TraceEntry:
    """One record in a schedule trace.

    ``kind`` is ``"primitive"`` (an invocation, with ``outcome`` either
    ``"applied"`` or ``"failed"``), ``"warning"`` (a structured observation,
    e.g. a forwarded cursor coming back invalidated), or ``"recovered"`` (a
    combinator rolled the preceding failed branch back and continued;
    ``primitive`` names the one that refused, ``error`` carries its message).

    Entries round-trip through plain dicts for JSON serialization:

    >>> from repro.api import TraceEntry
    >>> e = TraceEntry(primitive="divide_loop", args=["i", 8], outcome="applied", edits=3)
    >>> TraceEntry.from_dict(e.to_dict()).to_dict() == e.to_dict()
    True
    >>> e
    <TraceEntry divide_loop [applied, 3 edits]>
    """

    __slots__ = (
        "kind", "primitive", "args", "kwargs", "edits", "outcome", "error", "detail",
    )

    def __init__(
        self,
        kind: str = "primitive",
        primitive: Optional[str] = None,
        args: Optional[list] = None,
        kwargs: Optional[dict] = None,
        edits: int = 0,
        outcome: Optional[str] = None,
        error: Optional[str] = None,
        detail: Optional[dict] = None,
    ):
        self.kind = kind
        self.primitive = primitive
        self.args = args or []
        self.kwargs = kwargs or {}
        self.edits = edits
        self.outcome = outcome
        self.error = error
        self.detail = detail

    def replayable(self) -> bool:
        return is_replayable(self.args) and is_replayable(self.kwargs)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.primitive is not None:
            d["primitive"] = self.primitive
        if self.args:
            d["args"] = self.args
        if self.kwargs:
            d["kwargs"] = self.kwargs
        if self.edits:
            d["edits"] = self.edits
        if self.outcome is not None:
            d["outcome"] = self.outcome
        if self.error is not None:
            d["error"] = self.error
        if self.detail is not None:
            d["detail"] = self.detail
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEntry":
        for field, (typ, what) in _FIELD_TYPES.items():
            value = d.get(field)
            if value is not None and not isinstance(value, typ):
                raise ReplayError(f'trace entry "{field}" must be {what}, not {type(value).__name__}')
        return cls(
            kind=d.get("kind", "primitive"),
            primitive=d.get("primitive"),
            args=d.get("args"),
            kwargs=d.get("kwargs"),
            edits=d.get("edits") or 0,
            outcome=d.get("outcome"),
            error=d.get("error"),
            detail=d.get("detail"),
        )

    def __repr__(self) -> str:
        if self.kind == "primitive":
            return f"<TraceEntry {self.primitive} [{self.outcome}, {self.edits} edits]>"
        return f"<TraceEntry {self.kind}: {self.detail or self.error}>"


class Trace:
    """A structured record of one schedule application.

    >>> from repro.api import S
    >>> from repro.blas import LEVEL1_KERNELS
    >>> out, trace = S.divide_loop("i", 8, ["io", "ii"]).apply_traced(LEVEL1_KERNELS["saxpy"])
    >>> [e.primitive for e in trace.applied()]
    ['divide_loop']
    >>> trace.replayable() and trace.total_edits() > 0
    True
    >>> trace.summary()
    {'divide_loop': 1}
    >>> import json
    >>> json.loads(trace.to_json())["proc"]
    'saxpy'
    """

    def __init__(
        self,
        entries: Optional[List[TraceEntry]] = None,
        *,
        schedule: Optional[str] = None,
        fingerprint: Optional[str] = None,
        proc_name: Optional[str] = None,
        initial: Optional[str] = None,
        final: Optional[str] = None,
    ):
        self.entries: List[TraceEntry] = entries if entries is not None else []
        self.schedule = schedule
        self.fingerprint = fingerprint
        self.proc_name = proc_name
        self.initial = initial
        self.final = final

    # -- views -----------------------------------------------------------------

    def applied(self) -> List[TraceEntry]:
        """The primitive invocations that actually transformed the procedure."""
        return [e for e in self.entries if e.kind == "primitive" and e.outcome == "applied"]

    def warnings(self) -> List[TraceEntry]:
        return [e for e in self.entries if e.kind == "warning"]

    def total_edits(self) -> int:
        return sum(e.edits for e in self.applied())

    def replayable(self) -> bool:
        return all(e.replayable() for e in self.applied())

    def summary(self) -> Dict[str, int]:
        """Per-primitive applied-invocation counts (for reports/metrics)."""
        out: Dict[str, int] = {}
        for e in self.applied():
            out[e.primitive] = out.get(e.primitive, 0) + 1
        return out

    def __repr__(self) -> str:
        return (
            f"<Trace of {self.proc_name or '?'}: {len(self.applied())} applied, "
            f"{len(self.warnings())} warnings, {self.total_edits()} edits>"
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": _TRACE_VERSION,
            "schedule": self.schedule,
            "fingerprint": self.fingerprint,
            "proc": self.proc_name,
            "initial": self.initial,
            "final": self.final,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        if not isinstance(d, dict):
            raise ReplayError(f"a trace must be a JSON object, not {type(d).__name__}")
        if d.get("version") != _TRACE_VERSION:
            raise ReplayError(f"unsupported trace version {d.get('version')!r}")
        entries = d.get("entries", [])
        if not isinstance(entries, list):
            raise ReplayError(f'trace "entries" must be a list, not {type(entries).__name__}')
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                raise ReplayError(f'trace "entries"[{i}] must be a JSON object, not {type(e).__name__}')
        return cls(
            [TraceEntry.from_dict(e) for e in entries],
            schedule=d.get("schedule"),
            fingerprint=d.get("fingerprint"),
            proc_name=d.get("proc"),
            initial=d.get("initial"),
            final=d.get("final"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


class TraceRecorder(obs.Watcher):
    """Collects trace entries while a schedule runs.

    Active inside its ``with`` block, which registers it as a watcher of the
    calling thread: it observes only the primitives that thread applies, so
    concurrent schedule applications (e.g. schedule-service workers) record
    disjoint traces.

    >>> from repro.api import TraceRecorder
    >>> from repro.blas import LEVEL1_KERNELS
    >>> from repro.primitives import divide_loop
    >>> rec = TraceRecorder()
    >>> with rec:
    ...     _ = divide_loop(LEVEL1_KERNELS["saxpy"], "i", 8, ["io", "ii"])
    >>> [e.primitive for e in rec.trace.applied()]
    ['divide_loop']
    """

    def __init__(self):
        self.trace = Trace()
        # the outermost primitive invocation in progress, if any, and its input
        self._open: Optional[TraceEntry] = None
        self._input: Optional[Procedure] = None
        # each applied entry's input and output version, until :meth:`prune`
        self._ends: Dict[TraceEntry, Tuple[Procedure, Procedure]] = {}

    # -- watcher hooks ---------------------------------------------------------

    def on_primitive_begin(self, name: str, depth: int, proc: Procedure, args, kwargs) -> None:
        if depth:
            return
        # encode_arg answers every value (an unknown one is "$opaque")
        self._open = TraceEntry(
            kind="primitive",
            primitive=name,
            args=[encode_arg(a, proc) for a in args],
            kwargs={k: encode_arg(v, proc) for k, v in kwargs.items()},
        )
        self._input = proc

    def on_atomic_edits(self, primitive: str, n: int) -> None:
        if self._open is not None:
            self._open.edits += n

    def _close(self, depth: int) -> Optional[TraceEntry]:
        """The entry an outermost primitive's end finishes (``None`` for a
        nested one, or one that began before this recorder was active)."""
        if depth or self._open is None:
            return None
        entry, self._open = self._open, None
        self.trace.entries.append(entry)
        return entry

    def on_primitive_commit(self, name: str, depth: int, result: Procedure) -> None:
        entry = self._close(depth)
        if entry is not None:
            entry.outcome = "applied"
            self._ends[entry] = (self._input, result)

    def on_primitive_fail(self, name: str, depth: int, err: BaseException) -> None:
        entry = self._close(depth)
        if entry is not None:
            entry.outcome = "failed"
            entry.error = str(err)

    def on_cursor_invalidated(self, proc: Procedure, cursor) -> None:
        self.trace.entries.append(
            TraceEntry(
                kind="warning",
                primitive=obs.current_primitive(),
                detail={
                    "event": "cursor-invalidated",
                    "target": cursor_location(cursor),
                    "proc": proc.name(),
                },
            )
        )

    # -- combinator support ------------------------------------------------------

    def checkpoint(self) -> int:
        return len(self.trace.entries)

    def rollback(self, mark: int, *, note: Optional[str] = None, error: Optional[str] = None) -> None:
        """Discard entries recorded since ``mark`` (a failed-and-recovered
        branch whose procedure was rolled back) and note the recovery: which
        primitive refused (when one did) and with what message."""
        dropped = self.trace.entries[mark:]
        del self.trace.entries[mark:]
        if dropped or error:
            self.trace.entries.append(
                TraceEntry(
                    kind="recovered",
                    primitive=next((e.primitive for e in reversed(dropped) if e.outcome == "failed"), None),
                    error=error,
                    detail={
                        "note": note or "branch rolled back",
                        "dropped_entries": len(dropped),
                    },
                )
            )

    # -- the path of versions ----------------------------------------------------

    def prune(self, start: Procedure, end: Procedure) -> Trace:
        """Keep only the applied entries on the path of versions from
        ``start`` to ``end``, let go of the versions, and return the trace.

        The walk goes back from ``end``, linking each step to the one before
        it by identity (the same root).  A step whose output is its input
        drops out, and so does one whose result library code discarded in a
        plain-Python ``try/except``, which the combinators never see.  Only
        the link to ``start`` may be one of equal digests (``procedure_digest``):
        a lifted schedule may work on an equal global instead of its input.
        Without a path every entry stays, for replay's final check.
        """
        ends, self._ends, self._input = self._ends, {}, None
        target, kept = end, set()
        for entry in reversed(self.trace.applied()):
            pre, post = ends[entry]
            if post._root is target._root and pre._root is not post._root:
                kept.add(entry)
                target = pre
        if target._root is start._root or procedure_digest(target._root) == procedure_digest(start._root):
            self.trace.entries = [e for e in self.trace.entries if e not in ends or e in kept]
        return self.trace


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


_signature = functools.lru_cache(maxsize=None)(inspect.signature)  # one per registered primitive


def replay(trace, proc: Procedure) -> Procedure:
    """Re-apply a :class:`Trace` (or its JSON text / dict form) to ``proc``.

    ``proc`` must be structurally identical to the procedure the trace was
    recorded against — the recorded cursor descriptors and expression strings
    are resolved positionally/nominally against it.  Every applied entry
    re-runs (recording kept only the steps on the path to the result);
    failed, warning and discarded-branch entries are skipped.  Only the two
    ends are digested (``procedure_digest``): ``proc`` against the recorded
    ``initial``, the result against the recorded ``final``.  The result is
    one step after ``proc``.

    >>> from repro.api import S, replay
    >>> from repro.blas import LEVEL1_KERNELS
    >>> out, trace = S.divide_loop("i", 8, ["io", "ii"]).apply_traced(LEVEL1_KERNELS["saxpy"])
    >>> again = replay(trace.to_json(), LEVEL1_KERNELS["saxpy"])
    >>> str(again) == str(out)
    True
    """
    if isinstance(trace, str):
        trace = Trace.from_json(trace)
    elif isinstance(trace, dict):
        trace = Trace.from_dict(trace)
    steps = trace.applied()
    if steps and (trace.initial is None or trace.final is None):
        raise ReplayError("trace carries no initial or final digest: a replay could not be checked")
    if trace.initial is not None and procedure_digest(proc._root) != trace.initial:
        raise ReplayError(
            "replay: the starting procedure is not structurally identical to the "
            "one the trace was recorded against"
        )
    start = proc
    for i, entry in enumerate(steps):
        fn = _prim_base.PRIMITIVE_REGISTRY.get(entry.primitive)
        if fn is None:
            raise ReplayError(f"step {i}: unknown primitive {entry.primitive!r}")
        if not entry.replayable():
            raise ReplayError(f"step {i} ({entry.primitive}) has non-serializable arguments and cannot replay")
        args = [decode_arg(a, proc) for a in entry.args]
        kwargs = {k: decode_arg(v, proc) for k, v in entry.kwargs.items()}
        try:  # a trace recorded against an older signature (a keyword since removed)
            _signature(fn).bind(proc, *args, **kwargs)
        except TypeError as err:
            raise ReplayError(
                f"step {i} ({entry.primitive}): the recorded arguments do not fit the primitive: {err}"
            ) from None
        try:
            proc = fn(proc, *args, **kwargs)
        except ExoError as err:
            raise ReplayError(f"step {i} ({entry.primitive}) failed during replay: {err}") from err
    if trace.final is not None and procedure_digest(proc._root) != trace.final:
        raise ReplayError("replay finished but did not reproduce the recorded final state")
    return proc.as_successor_of(start)
