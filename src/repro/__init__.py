"""repro — a reproduction of "Exo 2: Growing a Scheduling Language" (ASPLOS 2025).

The package provides:

* an object language (``@proc`` / ``@instr``) with a pure-Python front-end,
* Cursors — multiple, stable, relative references into object code,
* ~46 fine-grained, safety-checked scheduling primitives,
* ``repro.api`` — schedules as first-class values: every primitive lifted
  into curried ``Schedule`` form on the ``S`` namespace, the combinators
  ``seq``/``try_`` and ``lift_op``, named knobs, JSON-serializable
  traces with replay, and a replay cache,
* user-space scheduling libraries (``repro.stdlib``, ``repro.blas``,
  ``repro.halide``, ``repro.gemmini``) built from those primitives and
  expressed as Schedule values,
* an interpreter, a compiled NumPy execution engine, a C backend, machine
  models, and a performance model used to reproduce the paper's evaluation.

Quickstart::

    from __future__ import annotations
    from repro import proc, divide_loop, lift_scope
    from repro.lang import *

    @proc
    def gemv(M: size, N: size, A: f32[M, N] @ DRAM,
             x: f32[N] @ DRAM, y: f32[M] @ DRAM):
        assert M % 8 == 0
        assert N % 8 == 0
        for i in seq(0, M):
            for j in seq(0, N):
                y[i] += A[i, j] * x[j]

    g = divide_loop(gemv, 'i', 8, ['io', 'ii'], perfect=True)
    g = divide_loop(g, 'j', 8, ['jo', 'ji'], perfect=True)
    g = lift_scope(g, 'jo')
"""

from .core.procedure import Procedure
from .errors import (
    BackendError,
    ExoError,
    InvalidCursorError,
    ParseError,
    SchedulingError,
)
from .frontend.decorators import instr, proc, proc_from_source
from .ir.config import Config, new_config
from .ir.memories import DRAM, DRAM_STACK, DRAM_STATIC, Memory, MemoryKind
from .primitives import *  # noqa: F401,F403 - the scheduling primitives
from .primitives import __all__ as _primitives_all

# the first-class schedule surface (combinators live in repro.api to avoid
# name collisions with repro.lang's object-code builders)
from .api import (
    S,
    Knob,
    ReplayCache,
    Schedule,
    Trace,
    knob,
    lift_op,
    register_op,
    replay,
    schedule_cache,
)

__version__ = "1.0.0"

__all__ = [
    "Procedure",
    "proc",
    "instr",
    "proc_from_source",
    "S",
    "Schedule",
    "knob",
    "Knob",
    "lift_op",
    "register_op",
    "Trace",
    "replay",
    "ReplayCache",
    "schedule_cache",
    "Config",
    "new_config",
    "Memory",
    "MemoryKind",
    "DRAM",
    "DRAM_STACK",
    "DRAM_STATIC",
    "ExoError",
    "SchedulingError",
    "InvalidCursorError",
    "ParseError",
    "BackendError",
    "__version__",
] + list(_primitives_all)
