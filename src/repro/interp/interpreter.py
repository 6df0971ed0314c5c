"""Reference interpreter for the object language.

The interpreter executes procedures against numpy buffers and is the ground
truth used by the test suite to check that scheduling preserved functional
equivalence (the role the paper's SMT-checked semantics play for Exo 2), and
by the performance model's validation tests.

``@instr`` procedures are executed through their bodies, which define their
semantics, exactly as in Exo's exocompilation model.

Backend selection
-----------------
:func:`run_proc` (and therefore :func:`check_equiv`) takes a ``backend``
argument:

* ``"compiled"`` (the default) — the NumPy compiled execution engine
  (:mod:`repro.interp.compile`): ~2–3 orders of magnitude faster, with
  automatic per-statement fallback to this tree interpreter for constructs it
  cannot lower, and a silent whole-procedure fallback when a procedure cannot
  be compiled at all;
* ``"interp"`` — this tree-walking reference interpreter;
* ``"c"`` — the native backend (:mod:`repro.backend.native`): the procedure
  is lowered to C with real AVX2/AVX-512 intrinsics, compiled with the system
  ``cc`` (artifacts persist in an on-disk cache) and called through
  ``ctypes``.  An artifact's *first* run on this machine happens inside a
  forked quarantine guard (:mod:`repro.guard`): a crash or hang poisons the
  artifact instead of killing this process, a clean run validates it so
  later calls go in-process at full speed;
* ``"differential"`` — run the engines on identical inputs and raise
  :class:`DifferentialError` if any tensor argument diverges beyond
  ``check_equiv`` tolerances.  The compiled engine is cross-checked against
  this interpreter always, and the native C backend joins as a third leg
  whenever a toolchain is available.

Degradation ladder
------------------
Execution degrades ``c → compiled → interp``: a missing toolchain, an
unlowerable construct, a poisoned artifact, or a quarantine failure drops
``"c"`` to the compiled NumPy engine, and a procedure the NumPy engine
cannot compile drops to this tree interpreter.  Every step down the ladder
is recorded as a structured :class:`~repro.guard.events.FallbackEvent`
(reason, stage, artifact key) in :mod:`repro.obs` — ``obs.events()`` holds
the records, ``obs.counters("fallback.")`` the per-reason totals — not a
warning to scrape.

The default can be overridden with the ``REPRO_EXEC_BACKEND`` environment
variable (see :mod:`repro.config`) or :func:`set_default_backend`; both
reject invalid names with the list of valid backends up front.

Out-of-bounds accesses — including *negative* indices, which NumPy would
silently wrap — raise :class:`InterpError` under every backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import config
from ..backend.lowering import NP_DTYPES as _DTYPES
from ..backend.lowering import np_dtype_for as _dtype_for
from ..backend.native import NativeError, call_guarded, compile_native
from ..errors import CodegenError, ExoError
from ..ir import nodes as N
from ..ir.externs import extern_by_name
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType
from .parallel import resolve_num_threads

__all__ = [
    "run_proc",
    "InterpError",
    "DifferentialError",
    "make_random_args",
    "check_equiv",
    "set_default_backend",
    "default_backend",
    "VALID_BACKENDS",
    "resolve_backend",
]


class InterpError(ExoError):
    """Raised when object code cannot be executed (e.g. out-of-bounds access)."""


class DifferentialError(InterpError):
    """The compiled engine and the tree interpreter disagreed on an output."""


VALID_BACKENDS = ("compiled", "interp", "differential", "c")
_BACKENDS = VALID_BACKENDS
_default_backend: Optional[str] = None  # set_default_backend overrides the env


def resolve_backend(backend: Optional[str], source: str = "backend=") -> str:
    """Validate a backend name up front, naming where the bad value came from
    and listing the valid backends — instead of failing deep in dispatch."""
    if backend is None:
        return default_backend()
    if backend not in _BACKENDS:
        raise InterpError(
            f"invalid execution backend {backend!r} (from {source}); "
            f"valid backends: {', '.join(_BACKENDS)}"
        )
    return backend


def default_backend() -> str:
    return _default_backend or config.exec_backend(VALID_BACKENDS) or "compiled"


def set_default_backend(name: str) -> None:
    """Set the process-wide default execution backend (see module docstring)."""
    if name not in _BACKENDS:
        raise ValueError(
            f"invalid execution backend {name!r}; valid backends: {', '.join(_BACKENDS)}"
        )
    global _default_backend
    _default_backend = name


class _Interp:
    def __init__(self, config_state: Optional[Dict] = None):
        self.config_state = config_state if config_state is not None else {}

    # -- expressions -------------------------------------------------------------

    def eval_expr(self, e: N.Expr, env: Dict[Sym, object]):
        if isinstance(e, N.Const):
            return e.val
        if isinstance(e, N.Read):
            val = env[e.name]
            if not e.idx:
                if isinstance(val, np.ndarray) and val.ndim == 0:
                    return val[()]
                return val
            idx = tuple(self._eval_index(i, env) for i in e.idx)
            if any(i < 0 for i in idx):
                # NumPy would silently wrap negative indices
                raise InterpError(f"out-of-bounds read of {e.name}{list(idx)} (negative index)")
            try:
                return val[idx]
            except IndexError as exc:
                raise InterpError(f"out-of-bounds read of {e.name}{list(idx)}") from exc
        if isinstance(e, N.BinOp):
            lhs = self.eval_expr(e.lhs, env)
            rhs = self.eval_expr(e.rhs, env)
            return self._binop(e.op, lhs, rhs)
        if isinstance(e, N.USub):
            return -self.eval_expr(e.arg, env)
        if isinstance(e, N.WindowExpr):
            return self._eval_window(e, env)
        if isinstance(e, N.StrideExpr):
            arr = env[e.name]
            if not isinstance(arr, np.ndarray) or arr.ndim == 0:
                return 1
            return arr.strides[e.dim] // arr.itemsize
        if isinstance(e, N.Extern):
            fn = extern_by_name(e.fname)
            args = [self.eval_expr(a, env) for a in e.args]
            return fn.impl(*args)
        if isinstance(e, N.ReadConfig):
            key = (id(e.config), e.field_name)
            if key not in self.config_state:
                raise InterpError(
                    f"read of configuration field {e.config.name()}.{e.field_name} before any write"
                )
            return self.config_state[key]
        raise InterpError(f"cannot evaluate expression of type {type(e).__name__}")

    def _eval_index(self, e: N.Expr, env) -> int:
        v = self.eval_expr(e, env)
        return int(v)

    def _binop(self, op: str, lhs, rhs):
        both_int = isinstance(lhs, (int, np.integer)) and isinstance(rhs, (int, np.integer))
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if both_int:
                return int(lhs) // int(rhs)
            return lhs / rhs
        if op == "%":
            return lhs % rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "and":
            return bool(lhs) and bool(rhs)
        if op == "or":
            return bool(lhs) or bool(rhs)
        raise InterpError(f"unknown operator {op!r}")

    def _eval_window(self, w: N.WindowExpr, env):
        arr = env[w.name]
        if not isinstance(arr, np.ndarray):
            raise InterpError(f"cannot window the non-buffer value {w.name}")
        index: List[object] = []
        for d in w.idx:
            if isinstance(d, N.Interval):
                lo = self._eval_index(d.lo, env)
                hi = self._eval_index(d.hi, env)
                if lo < 0 or hi < 0:
                    raise InterpError(f"out-of-bounds window of {w.name} (negative bound)")
                index.append(slice(lo, hi))
            else:
                pt = self._eval_index(d.pt, env)
                if pt < 0:
                    raise InterpError(f"out-of-bounds window of {w.name} (negative index)")
                index.append(pt)
        if arr.ndim == 0 and index == [slice(0, 1)]:
            return arr.reshape(1)
        return arr[tuple(index)]

    # -- statements ---------------------------------------------------------------

    def exec_stmts(self, stmts: Sequence[N.Stmt], env: Dict[Sym, object]):
        for s in stmts:
            self.exec_stmt(s, env)

    def exec_stmt(self, s: N.Stmt, env: Dict[Sym, object]):
        if isinstance(s, (N.Assign, N.Reduce)):
            val = self.eval_expr(s.rhs, env)
            target = env[s.name]
            if isinstance(target, np.ndarray):
                if s.idx:
                    idx = tuple(self._eval_index(i, env) for i in s.idx)
                    if any(i < 0 for i in idx):
                        raise InterpError(f"out-of-bounds write to {s.name}{list(idx)} (negative index)")
                else:
                    idx = ()
                try:
                    if isinstance(s, N.Assign):
                        target[idx] = val
                    else:
                        target[idx] += val
                except IndexError as exc:
                    raise InterpError(f"out-of-bounds write to {s.name}{list(idx)}") from exc
            else:
                if isinstance(s, N.Assign):
                    env[s.name] = val
                else:
                    env[s.name] = env[s.name] + val
            return
        if isinstance(s, N.Alloc):
            if isinstance(s.typ, TensorType):
                shape = tuple(self._eval_index(d, env) for d in s.typ.shape)
                env[s.name] = np.zeros(shape, dtype=_dtype_for(s.typ))
            else:
                env[s.name] = np.zeros((), dtype=_dtype_for(s.typ))
            return
        if isinstance(s, N.For):
            lo = self._eval_index(s.lo, env)
            hi = self._eval_index(s.hi, env)
            for v in range(lo, hi):
                env[s.iter] = v
                self.exec_stmts(s.body, env)
            return
        if isinstance(s, N.If):
            if bool(self.eval_expr(s.cond, env)):
                self.exec_stmts(s.body, env)
            else:
                self.exec_stmts(s.orelse, env)
            return
        if isinstance(s, N.Pass):
            return
        if isinstance(s, N.Call):
            self.exec_call(s, env)
            return
        if isinstance(s, N.WindowStmt):
            env[s.name] = self._eval_window(s.rhs, env)
            return
        if isinstance(s, N.WriteConfig):
            self.config_state[(id(s.config), s.field_name)] = self.eval_expr(s.rhs, env)
            return
        raise InterpError(f"cannot execute statement of type {type(s).__name__}")

    def exec_call(self, call: N.Call, env: Dict[Sym, object]):
        callee = call.proc
        cdef = callee._root if hasattr(callee, "_root") else callee
        new_env: Dict[Sym, object] = {}
        for fn_arg, actual in zip(cdef.args, call.args):
            if isinstance(fn_arg.typ, TensorType):
                val = self.eval_expr(actual, env)
                if not isinstance(val, np.ndarray):
                    val = np.asarray(val)
                new_env[fn_arg.name] = val
            else:
                new_env[fn_arg.name] = self.eval_expr(actual, env)
        self.exec_proc(cdef, new_env)

    def exec_proc(self, proc_def: N.ProcDef, env: Dict[Sym, object]):
        self.exec_stmts(proc_def.body, env)


def _run_compiled(
    root,
    env: Dict[Sym, object],
    config_state,
    inline: Optional[bool] = None,
    threads: Optional[int] = None,
) -> None:
    """Execute through the compiled engine (raises CompileError if the whole
    procedure cannot be lowered)."""
    from .compile import _RunContext, compile_proc

    engine = compile_proc(root, inline=inline, threads=threads)
    ctx = _RunContext(config_state)
    engine.run(ctx, [env[a.name] for a in root.args])


def _run_native(root, values: Dict[str, object], threads: Optional[int] = None) -> None:
    """Execute through the native C backend with first-run quarantine
    (compile-and-cache, guard the first run, then call in-process).

    ``threads`` bounds the OpenMP worker count of ``par`` loops (forwarded to
    ``omp_set_num_threads`` when the artifact was built with OpenMP).

    Raises CodegenError / NativeError (incl. ArtifactPoisonedError) when the
    procedure cannot be lowered, no toolchain is available, or the artifact
    failed its quarantine — callers decide how to degrade."""
    call_guarded(compile_native(root), values, threads=threads)


def _fallback_reason(exc) -> str:
    """The stable reason identifier a degradation event records for ``exc``."""
    reason = getattr(exc, "reason", None)
    if reason:
        return reason
    if isinstance(exc, CodegenError):
        return "codegen-declined"
    return "native-unavailable"


def _record_native_fallback(root, exc, stage: str = "c->compiled") -> None:
    from ..guard import record_fallback

    record_fallback(
        root.name,
        stage,
        _fallback_reason(exc),
        artifact_key=getattr(exc, "artifact_key", None),
        detail=f"{type(exc).__name__}: {exc}",
    )


def run_proc(
    procedure,
    *pos_args,
    backend: Optional[str] = None,
    check_asserts: bool = True,
    config_state=None,
    diff_rtol: float = 1e-4,
    diff_atol: float = 1e-5,
    inline: Optional[bool] = None,
    threads: Optional[int] = None,
    **kw_args,
):
    """Execute a :class:`Procedure` on concrete arguments.

    Arguments are given positionally or by name; tensor arguments must be
    numpy arrays (modified in place), sizes are ints and scalars floats.
    ``backend`` selects the execution engine (see the module docstring);
    ``diff_rtol``/``diff_atol`` are the tolerances of the ``"differential"``
    backend's cross-check; ``inline`` forces the compiled engine's
    cross-procedure inliner on or off (``None`` defers to the
    ``REPRO_EXEC_INLINE`` environment variable, default on); ``threads``
    sets the worker count ``par`` loops execute with (``None`` defers to
    ``REPRO_NUM_THREADS``, then the CPU count — see
    :mod:`repro.interp.parallel`).
    """
    backend = resolve_backend(backend)
    threads = resolve_num_threads(threads)
    root = procedure._root if hasattr(procedure, "_root") else procedure
    env: Dict[Sym, object] = {}
    names = [a.name.name for a in root.args]
    values = dict(zip(names, pos_args))
    values.update(kw_args)
    missing = [n for n in names if n not in values]
    if missing:
        raise InterpError(f"missing arguments: {missing}")
    for a in root.args:
        v = values[a.name.name]
        if isinstance(a.typ, TensorType) and not isinstance(v, np.ndarray):
            v = np.asarray(v, dtype=_dtype_for(a.typ))
            values[a.name.name] = v
        env[a.name] = v

    interp = _Interp(config_state)
    if check_asserts:
        for p in root.preds:
            if not bool(interp.eval_expr(p, env)):
                from ..ir.printing import expr_str

                raise InterpError(f"procedure precondition failed: {expr_str(p)}")

    if backend == "interp":
        interp.exec_proc(root, env)
        return {n: values[n] for n in names}

    if backend == "c":
        try:
            _run_native(root, values, threads=threads)
            return {n: values[n] for n in names}
        except (CodegenError, NativeError) as exc:
            # graceful degrade down the ladder: nothing has executed in this
            # process (failures happen before the in-process call, and a
            # quarantined child's writes are copy-on-write), so the compiled
            # engine can take over on the same buffers
            _record_native_fallback(root, exc)
            backend = "compiled"

    if backend == "differential":
        # reference run on private copies, compiled run on the caller's
        # buffers (and, toolchain permitting, a native C run on a third set
        # of copies), then compare every tensor argument and the config state
        ref_env = {
            a.name: (env[a.name].copy() if isinstance(env[a.name], np.ndarray) else env[a.name])
            for a in root.args
        }
        c_values = {
            n: (v.copy() if isinstance(v, np.ndarray) else v) for n, v in values.items()
        }
        if config_state is None:
            config_state = {}  # materialised so both legs are comparable
        ref_cfg = dict(config_state)
        _Interp(ref_cfg).exec_proc(root, ref_env)

    from .compile import CompileError

    try:
        _run_compiled(root, env, config_state, inline=inline, threads=threads)
    except CompileError as exc:
        if backend == "differential":
            # degrading to interpreter-vs-interpreter would make the
            # cross-check vacuous; fail loudly instead
            raise DifferentialError(
                f"{root.name}: compiled engine unavailable for differential check: {exc}"
            ) from exc
        from ..guard import record_fallback

        record_fallback(
            root.name, "compiled->interp", "compile-error", detail=str(exc)
        )
        interp.exec_proc(root, env)

    if backend == "differential":
        for a in root.args:
            got = env[a.name]
            if not isinstance(got, np.ndarray):
                continue
            want = ref_env[a.name]
            if not np.allclose(got, want, rtol=diff_rtol, atol=diff_atol, equal_nan=True):
                worst = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)))
                raise DifferentialError(
                    f"{root.name}: compiled engine disagrees with the tree interpreter "
                    f"on argument {a.name.name!r} (max abs diff {worst:g})"
                )
        if set(config_state) != set(ref_cfg) or any(
            not np.allclose(config_state[k], ref_cfg[k], rtol=diff_rtol, atol=diff_atol)
            for k in ref_cfg
        ):
            raise DifferentialError(
                f"{root.name}: compiled engine disagrees with the tree interpreter "
                f"on the final configuration state"
            )
        # third leg: the native C backend, when it can run here at all (a
        # missing toolchain or an unlowerable construct — e.g. config state —
        # skips the leg rather than weakening the compiled-vs-interp check)
        try:
            _run_native(root, c_values, threads=threads)
        except (CodegenError, NativeError) as exc:
            _record_native_fallback(root, exc, stage="differential-c-leg")
        else:
            for a in root.args:
                got = c_values[a.name.name]
                if not isinstance(got, np.ndarray):
                    continue
                want = ref_env[a.name]
                if not np.allclose(got, want, rtol=diff_rtol, atol=diff_atol, equal_nan=True):
                    worst = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)))
                    raise DifferentialError(
                        f"{root.name}: native C backend disagrees with the tree "
                        f"interpreter on argument {a.name.name!r} (max abs diff {worst:g})"
                    )
    return {n: values[n] for n in names}


def make_random_args(procedure, size_env: Dict[str, int], seed: int = 0) -> Dict[str, object]:
    """Construct random concrete arguments for a procedure.

    ``size_env`` supplies values for ``size`` arguments (and any boolean
    arguments, as 0/1); tensors are filled with uniform random data of their
    declared element type.
    """
    rng = np.random.default_rng(seed)
    root = procedure._root if hasattr(procedure, "_root") else procedure
    env_exprs: Dict[Sym, int] = {}
    out: Dict[str, object] = {}
    for a in root.args:
        if isinstance(a.typ, ScalarType) and (a.typ.is_indexable() or a.typ.is_bool()):
            if a.name.name not in size_env:
                raise InterpError(f"size_env is missing a value for {a.name.name!r}")
            val = int(size_env[a.name.name])
            out[a.name.name] = val
            env_exprs[a.name] = val
    interp = _Interp()
    for a in root.args:
        if isinstance(a.typ, TensorType):
            shape = tuple(int(interp.eval_expr(d, env_exprs)) for d in a.typ.shape)
            if a.typ.base.is_float:
                data = rng.uniform(-1.0, 1.0, size=shape).astype(_dtype_for(a.typ))
            else:
                data = rng.integers(-4, 5, size=shape).astype(_dtype_for(a.typ))
            out[a.name.name] = data
        elif isinstance(a.typ, ScalarType) and a.typ.is_numeric:
            if a.name.name in size_env:
                out[a.name.name] = float(size_env[a.name.name])
            else:
                out[a.name.name] = float(rng.uniform(-1.0, 1.0))
    return out


def check_equiv(
    p1,
    p2,
    size_env: Dict[str, int],
    *,
    seed: int = 0,
    rtol: float = 1e-4,
    atol: float = 1e-5,
    backend: Optional[str] = None,
    inline: Optional[bool] = None,
    threads: Optional[int] = None,
) -> bool:
    """Run two procedures on identical random inputs and compare every tensor
    argument afterwards.  Returns True when all outputs match.  ``backend``
    selects the execution engine for both runs (default: the process default,
    normally the compiled engine); ``inline`` and ``threads`` are forwarded
    to the execution engines."""
    args1 = make_random_args(p1, size_env, seed=seed)
    args2 = {
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in make_random_args(p2, size_env, seed=seed).items()
    }
    out1 = run_proc(p1, backend=backend, inline=inline, threads=threads, **args1)
    out2 = run_proc(p2, backend=backend, inline=inline, threads=threads, **args2)
    for name, v1 in out1.items():
        if isinstance(v1, np.ndarray):
            v2 = out2[name]
            if not np.allclose(v1, v2, rtol=rtol, atol=atol):
                return False
    return True
