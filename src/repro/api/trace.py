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
``warning`` entries instead of being silently dropped.

Traces serialize to JSON (:meth:`Trace.to_json`) and :func:`replay` re-applies
one against a structurally identical starting procedure, yielding a procedure
structurally equal to the originally scheduled one.
"""

from __future__ import annotations

import functools
import inspect
import json
from typing import Callable, Dict, List, Optional

from .. import obs
from ..core.procedure import Procedure
from ..errors import ExoError, cursor_location
from ..ir.printing import proc_digest
from ..primitives import _base as _prim_base
from .serialize import ReplayError, decode_arg, encode_arg, is_replayable

__all__ = ["TraceEntry", "Trace", "TraceRecorder", "replay", "ReplayError", "state_hash"]

_TRACE_VERSION = 1


def state_hash(proc: Procedure) -> str:
    """A process-stable digest of a procedure's printed form, used to chain
    trace entries: each entry records the state it ran on (``pre``) and the
    state it produced (``post``).  Replay follows the ``pre``/``post`` chain
    backward from the final state, so work that a library function performed
    and then discarded in a plain-Python ``try/except`` (invisible to the
    combinator rollback machinery) is pruned instead of being re-applied.

    >>> from repro.api.trace import state_hash
    >>> from repro.blas import LEVEL1_KERNELS
    >>> h = state_hash(LEVEL1_KERNELS["saxpy"])
    >>> len(h), h == state_hash(LEVEL1_KERNELS["saxpy"])
    (16, True)
    >>> h == state_hash(LEVEL1_KERNELS["sdot"])
    False
    """
    # memoised on the (immutable) root: step N's ``post`` is step N+1's ``pre``
    return proc_digest(proc._root)


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
        "kind", "primitive", "args", "kwargs", "edits", "outcome", "error", "detail", "pre", "post",
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
        pre: Optional[str] = None,
        post: Optional[str] = None,
    ):
        self.kind = kind
        self.primitive = primitive
        self.args = args or []
        self.kwargs = kwargs or {}
        self.edits = edits
        self.outcome = outcome
        self.error = error
        self.detail = detail
        self.pre = pre
        self.post = post

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
        if self.pre is not None:
            d["pre"] = self.pre
        if self.post is not None:
            d["post"] = self.post
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEntry":
        return cls(
            kind=d.get("kind", "primitive"),
            primitive=d.get("primitive"),
            args=d.get("args", []),
            kwargs=d.get("kwargs", {}),
            edits=d.get("edits", 0),
            outcome=d.get("outcome"),
            error=d.get("error"),
            detail=d.get("detail"),
            pre=d.get("pre"),
            post=d.get("post"),
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
        if d.get("version") != _TRACE_VERSION:
            raise ReplayError(f"unsupported trace version {d.get('version')!r}")
        return cls(
            [TraceEntry.from_dict(e) for e in d.get("entries", [])],
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
        # the outermost primitive invocation in progress, if any
        self._open: Optional[TraceEntry] = None

    # -- watcher hooks ---------------------------------------------------------

    def on_primitive_begin(self, name: str, depth: int, proc: Procedure, args, kwargs) -> None:
        if depth:
            return

        def enc(v):
            try:
                return encode_arg(v, proc)
            except Exception:  # never let recording break the primitive
                return {"$opaque": repr(v)}

        self._open = TraceEntry(
            kind="primitive",
            primitive=name,
            args=[enc(a) for a in args],
            kwargs={k: enc(v) for k, v in kwargs.items()},
            pre=state_hash(proc),
        )

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
            entry.post = state_hash(result)

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


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _chain(trace: Trace) -> List[TraceEntry]:
    """The entries on the real ``pre → post`` path from the trace's initial
    state to its final state.

    Library code may perform primitives and then discard the result in a
    plain-Python ``try/except`` (e.g. "vectorize; on failure return the
    original"); those entries are recorded (they did run) but lie off the
    state chain, so a backward walk from the final state prunes them.
    """
    applied = trace.applied()
    if trace.final is None or any(e.pre is None or e.post is None for e in applied):
        if applied:
            raise ReplayError("trace carries no state hashes: there is no chain to replay along")
        return []  # the empty trace
    needed: List[TraceEntry] = []
    target = trace.final
    for e in reversed(applied):
        if e.post == target and e.pre != e.post:
            needed.append(e)
            target = e.pre
    if trace.initial is not None and target != trace.initial:
        raise ReplayError(
            "trace state chain is broken: no path from the initial state to the final state"
        )
    needed.reverse()
    return needed


_signature = functools.lru_cache(maxsize=None)(inspect.signature)  # one per registered primitive


def replay(trace, proc: Procedure) -> Procedure:
    """Re-apply a :class:`Trace` (or its JSON text / dict form) to ``proc``.

    ``proc`` must be structurally identical to the procedure the trace was
    recorded against — the recorded cursor descriptors and expression strings
    are resolved positionally/nominally against it, and each step's recorded
    ``pre`` state hash is checked before it re-runs.  Failed, warning, and
    discarded-branch entries are skipped; only the invocations on the state
    chain re-run.

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
    if trace.initial is not None and state_hash(proc) != trace.initial:
        raise ReplayError(
            "replay: the starting procedure is not structurally identical to the "
            "one the trace was recorded against"
        )
    for i, entry in enumerate(_chain(trace)):
        fn = _prim_base.PRIMITIVE_REGISTRY.get(entry.primitive)
        if fn is None:
            raise ReplayError(f"step {i}: unknown primitive {entry.primitive!r}")
        if not entry.replayable():
            raise ReplayError(
                f"step {i} ({entry.primitive}) has non-serializable arguments and cannot replay"
            )
        if state_hash(proc) != entry.pre:
            raise ReplayError(
                f"step {i} ({entry.primitive}): replay state diverged from the recorded chain"
            )
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
            raise ReplayError(
                f"step {i} ({entry.primitive}) failed during replay: {err}"
            ) from err
    if trace.final is not None and state_hash(proc) != trace.final:
        raise ReplayError("replay finished but did not reproduce the recorded final state")
    return proc
