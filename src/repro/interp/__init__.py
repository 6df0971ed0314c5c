"""Object-language execution engines.

Three engines share one semantics: the tree-walking reference interpreter
(:mod:`repro.interp.interpreter`), the NumPy compiled execution engine
(:mod:`repro.interp.compile`) and the native C backend
(:mod:`repro.backend.native`).  ``run_proc``/``check_equiv`` default to the
compiled engine with automatic fallback to the interpreter; pass
``backend="interp"`` for the reference semantics, ``backend="c"`` for native
execution (first runs quarantined by :mod:`repro.guard`), or
``backend="differential"`` to cross-check.  Degradations down the
``c → compiled → interp`` ladder are recorded as structured fallback events
in :mod:`repro.obs` (``obs.events()``, ``obs.counters("fallback.")``).

Loops annotated ``par`` by :func:`~repro.primitives.parallelize_loop`
execute on multiple cores: ``run_proc(threads=...)`` / ``REPRO_NUM_THREADS``
set the worker count (see :mod:`repro.interp.parallel`), and
``obs.counters("par.")`` reports how many loops actually dispatched.
"""

from .compile import CompileError, CompiledProc, clear_compile_cache, compile_proc, compiled_source
from .parallel import (
    MAX_THREADS,
    PAR_CHUNKS,
    ThreadCountError,
    resolve_num_threads,
)
from .interpreter import (
    VALID_BACKENDS,
    DifferentialError,
    InterpError,
    check_equiv,
    default_backend,
    make_random_args,
    resolve_backend,
    run_proc,
    set_default_backend,
)

__all__ = [
    "InterpError",
    "DifferentialError",
    "CompileError",
    "CompiledProc",
    "check_equiv",
    "make_random_args",
    "run_proc",
    "compile_proc",
    "compiled_source",
    "clear_compile_cache",
    "default_backend",
    "set_default_backend",
    "VALID_BACKENDS",
    "resolve_backend",
    "MAX_THREADS",
    "PAR_CHUNKS",
    "ThreadCountError",
    "resolve_num_threads",
]
