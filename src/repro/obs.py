"""repro.obs — one place to count, one place to watch.

The only process-wide observation state in the package, in three parts:

* **Counters** — dotted names to integers behind one lock: :func:`add`,
  :func:`peak` (a running maximum), :func:`count`, :func:`counters` (one
  prefix's counters, prefix stripped), :func:`reset`.  A module that wants a
  fixed set of names reported at zero before their first increment (the
  service's ``/stats`` shape) calls :func:`declare` once at import.
  ``docs/architecture.md`` holds the table of every name.
* **Events** — one bounded ring (:data:`MAX_EVENTS`) of the structured
  records the execution stack emits when it degrades
  (:class:`repro.guard.events.FallbackEvent`).  :func:`emit` appends the
  record and bumps its counter under the same lock, so the ring may drop
  old records while the totals stay exact.
* **Scheduling watchers** — one thread-local stack: the primitives
  currently running in this thread and the :class:`Watcher` objects to tell
  about them.  ``@scheduling_primitive`` reports begin / commit / fail,
  ``EditSession.finish`` reports atomic edits, ``Procedure.forward`` reports
  an invalidated cursor; :class:`~repro.primitives.counter.count_rewrites`
  and :class:`~repro.api.trace.TraceRecorder` are watchers.  A watcher sees
  only the thread that registered it.

A leaf: it imports nothing from ``repro``, so every layer may report here.
Per-object statistics that belong to an instance's own locked state
(``ReplayCache.stats``, ``CompiledProc.stats``, ``Leaderboard.stats``, the
service's request accounting) are not this module's business.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

__all__ = [
    "MAX_EVENTS",
    "Watcher",
    "add",
    "atomic_edits",
    "count",
    "counters",
    "current_primitive",
    "cursor_invalidated",
    "declare",
    "emit",
    "events",
    "peak",
    "primitive_begin",
    "primitive_commit",
    "primitive_fail",
    "reset",
    "unwatch",
    "watch",
    "watchers",
]

#: ring-buffer bound — a long-lived process must not leak memory recording
#: the same degradation forever
MAX_EVENTS = 512

# increments are read-modify-write; one lock keeps every total exact when
# several threads count at once (e.g. schedule-service workers)
_lock = threading.Lock()
_counters: Dict[str, int] = {}
_declared: Set[str] = set()
_events: Deque[object] = deque(maxlen=MAX_EVENTS)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def declare(*names: str) -> None:
    """Report ``names`` at zero until incremented, and again after a
    :func:`reset` (undeclared names disappear on reset)."""
    with _lock:
        _declared.update(names)
        for name in names:
            _counters.setdefault(name, 0)


def add(name: str, n: int = 1) -> None:
    with _lock:
        _counters[name] = _counters.get(name, 0) + n


def peak(name: str, value: int) -> None:
    """Raise ``name`` to ``value`` if that is higher than what it holds."""
    with _lock:
        if value > _counters.get(name, 0):
            _counters[name] = value


def count(name: str) -> int:
    """One counter (0 when it was never incremented)."""
    return _counters.get(name, 0)


def counters(prefix: str = "") -> Dict[str, int]:
    """A copy of the counters whose name starts with ``prefix``, keyed by the
    rest of the name: ``counters("guard.")["ok"]``."""
    n = len(prefix)
    with _lock:
        return {k[n:]: v for k, v in _counters.items() if k.startswith(prefix)}


def reset(prefix: str = "") -> None:
    """Zero the counters under ``prefix`` (everything, by default); the
    event ring goes with its ``fallback.`` counters."""
    with _lock:
        for k in [k for k in _counters if k.startswith(prefix)]:
            del _counters[k]
        _counters.update((k, 0) for k in _declared if k.startswith(prefix))
        if "fallback.".startswith(prefix):
            _events.clear()


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


def emit(name: str, event: object) -> None:
    """Append ``event`` to the ring and count it under ``name``."""
    with _lock:
        _events.append(event)
        _counters[name] = _counters.get(name, 0) + 1


def events() -> List[object]:
    """The recorded events, newest last.  Only the most recent
    :data:`MAX_EVENTS` are kept; the counters keep exact totals."""
    with _lock:
        return list(_events)


# ---------------------------------------------------------------------------
# Scheduling watchers
# ---------------------------------------------------------------------------


class Watcher:
    """Told about the scheduling this thread does while registered
    (:func:`watch`, or a ``with`` block).  Override what you need.

    ``depth`` is the number of primitives already running when this one
    began: 0 for a primitive the user called, more for one a primitive
    called."""

    def on_primitive_begin(self, name: str, depth: int, proc, args, kwargs) -> None:
        pass

    def on_primitive_commit(self, name: str, depth: int, result) -> None:
        pass

    def on_primitive_fail(self, name: str, depth: int, err: BaseException) -> None:
        pass

    def on_atomic_edits(self, primitive: str, n: int) -> None:
        """``n`` atomic edits were finished by ``primitive`` (``<direct>``
        for an edit session opened outside any primitive)."""

    def on_cursor_invalidated(self, proc, cursor) -> None:
        """Forwarding ``cursor`` into ``proc`` found nothing to point at."""

    def __enter__(self):
        watch(self)
        return self

    def __exit__(self, *exc) -> bool:
        unwatch(self)
        return False


class _Thread(threading.local):
    def __init__(self):
        self.primitives: List[str] = []
        # replaced, never mutated: a notification loop walks a stable tuple
        self.watchers: Tuple[Watcher, ...] = ()


_thread = _Thread()


def watch(watcher: Watcher) -> None:
    _thread.watchers += (watcher,)


def unwatch(watcher: Watcher) -> None:
    _thread.watchers = tuple(w for w in _thread.watchers if w is not watcher)


def watchers() -> Tuple[Watcher, ...]:
    """The watchers registered in this thread, oldest first."""
    return _thread.watchers


def current_primitive() -> Optional[str]:
    """The innermost primitive running in this thread, or ``None``."""
    stack = _thread.primitives
    return stack[-1] if stack else None


def primitive_begin(name: str, proc, args, kwargs) -> None:
    """One application of a scheduling primitive starts (Figure 9b counts
    these).  Paired with :func:`primitive_commit` or :func:`primitive_fail`."""
    per_name = "sched.rewrites." + name
    with _lock:
        _counters["sched.rewrites"] = _counters.get("sched.rewrites", 0) + 1
        _counters[per_name] = _counters.get(per_name, 0) + 1
    t = _thread
    depth = len(t.primitives)
    # watchers first: one that raises must not leave ``name`` on the stack
    for w in t.watchers:
        w.on_primitive_begin(name, depth, proc, args, kwargs)
    t.primitives.append(name)


def primitive_commit(result) -> None:
    t = _thread
    name = t.primitives.pop()
    for w in t.watchers:
        w.on_primitive_commit(name, len(t.primitives), result)


def primitive_fail(err: BaseException) -> None:
    t = _thread
    name = t.primitives.pop()
    for w in t.watchers:
        w.on_primitive_fail(name, len(t.primitives), err)


def atomic_edits(n: int) -> None:
    """An edit session finished ``n`` atomic edits (Section 5.2), on behalf
    of the primitive currently running."""
    if n <= 0:
        return
    add("sched.atomic_edits", n)
    primitive = current_primitive() or "<direct>"
    for w in _thread.watchers:
        w.on_atomic_edits(primitive, n)


def cursor_invalidated(proc, cursor) -> None:
    for w in _thread.watchers:
        w.on_cursor_invalidated(proc, cursor)
