"""repro.api — schedules as first-class values.

The combinator surface that grows the scheduling language in user space:

* :data:`S` — every scheduling primitive, auto-lifted into curried
  ``Schedule``-returning form, plus library operations added with
  :func:`register_op`; :func:`lift_op` lifts any other ``Op``-shaped
  function, such as a traversal or a repeat written with the paper's
  combinators in :mod:`repro.stdlib`,
* combinators :func:`seq` and :func:`try_` (:func:`try_op` in plain-Python
  library code; both are spellings of :func:`attempt`, the one place a
  refusal is recovered from),
* :func:`knob` — named schedule parameters resolved at apply time,
* :class:`Trace` + :func:`replay` — structured, JSON-serializable records of
  every application, and
* :class:`ReplayCache` / :data:`schedule_cache` — memoised scheduling keyed on
  ``(procedure digest, schedule fingerprint)`` — the digest is
  :func:`repro.ir.printing.procedure_digest`, the one procedure identity
  every cache keys on.

Quickstart::

    from repro.api import S, knob, seq, try_

    tile = seq(
        S.divide_loop('i', knob('ti', 8), ['io', 'ii'], perfect=True),
        S.divide_loop('j', knob('tj', 8), ['jo', 'ji'], perfect=True),
        S.lift_scope('jo'),
    )
    tiled = p >> tile                       # defaults
    swept = [tile.apply(p, ti=t, tj=t) for t in (4, 8, 16)]
"""

from .cache import ReplayCache, schedule_cache
from .knobs import Knob, KnobError, collect_knobs, knob, resolve_value
from .schedule import S, Schedule, Step, attempt, lift_op, register_op, seq, try_, try_op
from .serialize import ReplayError, register_proc
from .trace import Trace, TraceEntry, TraceRecorder, replay

# importing the primitives package populates the registry S lifts from
from .. import primitives as _primitives  # noqa: F401  (registration side effect)

__all__ = [
    "S",
    "Schedule",
    "Step",
    "knob",
    "Knob",
    "KnobError",
    "seq",
    "attempt",
    "try_",
    "try_op",
    "lift_op",
    "register_op",
    "Trace",
    "TraceEntry",
    "TraceRecorder",
    "replay",
    "ReplayError",
    "ReplayCache",
    "schedule_cache",
    "register_proc",
    "resolve_value",
    "collect_knobs",
]
