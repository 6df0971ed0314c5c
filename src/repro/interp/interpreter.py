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
  (:mod:`repro.interp.compile`): ~2–3 orders of magnitude faster; a
  procedure with a statement it cannot lower runs on this tree interpreter
  instead, as a whole;
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
variable (see :mod:`repro.config`), which rejects invalid names with the
list of valid backends up front.

Out-of-bounds accesses — including *negative* indices, which NumPy would
silently wrap — raise :class:`InterpError` under every backend.  Compiled C
cannot check an access, so before it runs, a tensor shorter in some dimension
than its declared shape at the given sizes is refused with
:class:`InterpError`, naming the argument and both shapes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import config
from ..backend.lowering import NP_DTYPES as _DTYPES
from ..backend.lowering import np_dtype_for as _dtype_for
from ..backend.native import NativeError, run_native
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
    "VALID_BACKENDS",
    "resolve_backend",
]


class InterpError(ExoError):
    """Raised when object code cannot be executed (e.g. out-of-bounds access)."""


class DifferentialError(InterpError):
    """The compiled engine and the tree interpreter disagreed on an output."""


VALID_BACKENDS = ("compiled", "interp", "differential", "c")
_BACKENDS = VALID_BACKENDS


def resolve_backend(backend: Optional[str], source: str = "backend=") -> str:
    """Validate a backend name up front, naming where the bad value came from
    and listing the valid backends — instead of failing deep in dispatch."""
    if backend is None:
        return config.exec_backend(VALID_BACKENDS) or "compiled"
    if backend not in _BACKENDS:
        raise InterpError(
            f"invalid execution backend {backend!r} (from {source}); "
            f"valid backends: {', '.join(_BACKENDS)}"
        )
    return backend


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
            if e.op == "/" and not e.typ.is_float:
                return int(lhs) // int(rhs)
            return self._binop(e.op, lhs, rhs)
        if isinstance(e, N.USub):
            return -self.eval_expr(e.arg, env)
        if isinstance(e, N.WindowExpr):
            return self._eval_window(e, env)
        if isinstance(e, N.StrideExpr):
            arr = env[e.name]
            return arr.strides[e.dim] // arr.itemsize
        if isinstance(e, N.Extern):
            fn = extern_by_name(e.fname)
            args = [self.eval_expr(a, env) for a in e.args]
            return fn.impl(*args)
        # N.ReadConfig, the one expression kind left
        key = (id(e.config), e.field_name)
        if key not in self.config_state:
            raise InterpError(
                f"read of configuration field {e.config.name()}.{e.field_name} before any write"
            )
        return self.config_state[key]

    def _eval_index(self, e: N.Expr, env) -> int:
        v = self.eval_expr(e, env)
        return int(v)

    def _binop(self, op: str, lhs, rhs):
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
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
        return bool(lhs) or bool(rhs)  # "or", the one operator left

    def _eval_window(self, w: N.WindowExpr, env):
        arr = env[w.name]
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
        # N.WriteConfig, the one statement kind left
        self.config_state[(id(s.config), s.field_name)] = self.eval_expr(s.rhs, env)

    def exec_call(self, call: N.Call, env: Dict[Sym, object]):
        cdef = call.proc._root
        new_env: Dict[Sym, object] = {}
        for fn_arg, actual in zip(cdef.args, call.args):
            new_env[fn_arg.name] = self.eval_expr(actual, env)
        self.exec_proc(cdef, new_env)

    def exec_proc(self, proc_def: N.ProcDef, env: Dict[Sym, object]):
        self.exec_stmts(proc_def.body, env)


class _Arguments:
    """What ``run_proc`` needs of a procedure's parameters, derived once per
    root (:func:`repro.ir.nodes.memo`): their names, and the binding step
    compiled from the argument types, the preconditions and the declared
    shapes."""

    def __init__(self, root: N.ProcDef):
        self.names = tuple(a.name.name for a in root.args)
        self.required = frozenset(self.names)
        self.bind = _binder(root)


def _arguments(root: N.ProcDef) -> _Arguments:
    return N.memo(root, "_run_args_cache", _Arguments)


def _binder(root: N.ProcDef):
    """``bind(values, config_state, extents)``: make each tensor argument in
    ``values`` an array of its execution dtype, then raise
    :class:`InterpError` when a tensor has another rank than declared (no
    engine re-checks one), when a precondition of ``root`` fails, and, with
    ``extents``, when a tensor is shorter in some dimension than its
    declared extent at the given sizes — what the tree and NumPy engines
    refuse at the first access past its end, and compiled C would not
    notice.  Generated as Python once per procedure; an
    expression the generator cannot render (a stride, a configuration read,
    an extern, a buffer element) is evaluated by the interpreter."""
    scalars = {a.name: f"_{k}" for k, a in enumerate(root.args) if not isinstance(a.typ, TensorType)}
    used: Dict[Sym, str] = {}
    hard: List[N.Expr] = []

    def render(e: N.Expr) -> str:
        if isinstance(e, N.Const) and type(e.val) in (int, float, bool) and math.isfinite(e.val):
            return repr(e.val)
        if isinstance(e, N.Read) and not e.idx and e.name in scalars:
            used[e.name] = scalars[e.name]
            return scalars[e.name]
        if isinstance(e, N.USub):
            return f"(-{render(e.arg)})"
        if isinstance(e, N.BinOp):
            # an object-language operator is Python's, but ``/`` of a type
            # that is not a float one is ``//`` (it and ``%`` floor on negatives)
            op = "//" if e.op == "/" and not e.typ.is_float else e.op
            return f"({render(e.lhs)} {op} {render(e.rhs)})"
        hard.append(e)
        return f"_eval({len(hard) - 1}, values, config_state)"

    convert, dtypes = [], {}
    for k, a in enumerate(root.args):
        if isinstance(a.typ, TensorType):
            name = a.name.name
            dtypes[name] = _dtype_for(a.typ)
            convert += [
                f"    if not isinstance(values[{name!r}], _ndarray):",
                f"        values[{name!r}] = _asarray(values[{name!r}], dtype=_dtypes[{name!r}])",
                f"    s{k} = values[{name!r}].shape",
                f"    if len(s{k}) != {len(a.typ.shape)}:",
                f"        _wrong_rank({name!r}, s{k})",
            ]
    preds = [f"    if not {render(p)}:\n        _failed({k})" for k, p in enumerate(root.preds)]
    shapes, declared = [], {}
    for k, a in enumerate(root.args):
        if isinstance(a.typ, TensorType):
            name, dims = a.name.name, [render(d) for d in a.typ.shape]
            declared[name] = str(a.typ)
            short = " or ".join(f"s{k}[{d}] < {w}" for d, w in enumerate(dims))
            shapes += [
                f"    if {short}:",
                f"        _refuse({name!r}, s{k}, ({''.join(w + ', ' for w in dims)}))",
            ]
    # the scalars the checks read, fetched once
    head = [f"    {local} = values[{sym.name!r}]" for sym, local in used.items()]
    source = "\n".join(
        ["def bind(values, config_state, extents):", *convert, *head, *preds]
        + ["    if not extents:", "        return None", *shapes, "    return None"]
    )

    def _failed(k):
        from ..ir.printing import expr_str

        raise InterpError(f"procedure precondition failed: {expr_str(root.preds[k])}")

    def _wrong_rank(name, shape):
        raise InterpError(f"{root.name}: argument {name!r} has shape {tuple(shape)}, but is declared {declared[name]}")

    def _refuse(name, shape, want):
        raise InterpError(
            f"{root.name}: argument {name!r} has shape {tuple(shape)}, but its declared "
            f"{declared[name]} is {tuple(int(w) for w in want)} here"
        )

    def _eval(k, values, config_state):
        env = {a.name: values[a.name.name] for a in root.args}
        return _Interp(config_state).eval_expr(hard[k], env)

    namespace = {
        "_failed": _failed, "_refuse": _refuse, "_wrong_rank": _wrong_rank, "_eval": _eval,
        "_ndarray": np.ndarray, "_asarray": np.asarray, "_dtypes": dtypes,
    }
    exec(compile(source, f"<argument binding of {root.name}>", "exec"), namespace)
    return namespace["bind"]


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


def _argument_error(proc: str, names, pos_args, kw_args) -> InterpError:
    """Name what keeps ``run_proc``'s arguments from binding each parameter once."""
    problems = {
        "unknown": sorted(kw_args.keys() - set(names)),
        "surplus positional": [f"#{k}" for k in range(len(names), len(pos_args))],
        "doubly bound": [n for n in names[: len(pos_args)] if n in kw_args],
        "missing": [n for n in names[len(pos_args) :] if n not in kw_args],
    }
    detail = "; ".join(f"{what} arguments {found}" for what, found in problems.items() if found)
    return InterpError(f"{proc}({', '.join(names)}): {detail}")


#: the ``"differential"`` backend's cross-check tolerances
_DIFF_RTOL, _DIFF_ATOL = 1e-4, 1e-5


def _compare_tensors(root, got_values, ref_env, leg: str) -> None:
    """Raise :class:`DifferentialError` naming ``leg`` (what disagrees with
    what) at the first tensor argument of ``got_values`` (by name) that
    differs from the reference run's ``ref_env`` (by symbol)."""
    for a in root.args:
        got = got_values[a.name.name]
        if not isinstance(got, np.ndarray):
            continue
        want = ref_env[a.name]
        if not np.allclose(got, want, rtol=_DIFF_RTOL, atol=_DIFF_ATOL, equal_nan=True):
            worst = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)))
            raise DifferentialError(f"{root.name}: {leg} on argument {a.name.name!r} (max abs diff {worst:g})")


def run_proc(
    procedure,
    *pos_args,
    backend: Optional[str] = None,
    config_state=None,
    threads: Optional[int] = None,
    **kw_args,
):
    """Execute a :class:`Procedure` on concrete arguments.

    Arguments are given positionally or by name; tensor arguments must be
    numpy arrays (modified in place), sizes are ints and scalars floats.
    ``backend`` selects the execution engine (see the module docstring);
    ``config_state`` is the configuration-state dict the procedure reads and
    writes (``None``: a fresh one); ``threads`` sets the worker count ``par``
    loops execute with (``None`` defers to ``REPRO_NUM_THREADS``, then the
    CPU count — see :mod:`repro.interp.parallel`).
    """
    backend = resolve_backend(backend)
    threads = resolve_num_threads(threads)
    root = procedure._root if hasattr(procedure, "_root") else procedure
    params = _arguments(root)
    names = params.names
    values = kw_args  # a fresh dict of this call's own
    if pos_args:
        values = dict(zip(names, pos_args))
        values.update(kw_args)
    if values.keys() != params.required or pos_args and len(pos_args) + len(kw_args) != len(values):
        raise _argument_error(root.name, names, pos_args, kw_args)
    params.bind(values, config_state, backend == "c")

    if backend == "c":
        try:
            run_native(root, values, threads=threads)
            return {n: values[n] for n in names}
        except (CodegenError, NativeError) as exc:
            # graceful degrade down the ladder: nothing has executed in this
            # process (failures happen before the in-process call, and a
            # quarantined child's writes are copy-on-write), so the compiled
            # engine can take over on the same buffers
            _record_native_fallback(root, exc)
            backend = "compiled"

    from .compile import CompileError, compile_proc

    if backend == "compiled":
        try:
            engine = compile_proc(root)
        except CompileError as exc:
            from ..guard import record_fallback

            record_fallback(root.name, "compiled->interp", "compile-error", detail=str(exc))
            backend = "interp"
        else:
            engine.run({} if config_state is None else config_state, [values[n] for n in names], threads)
            return {n: values[n] for n in names}

    # the tree interpreter's view of the arguments
    env = {a.name: values[a.name.name] for a in root.args}
    if backend == "interp":
        _Interp(config_state).exec_proc(root, env)
        return {n: values[n] for n in names}

    # differential: a reference run on private copies, the compiled run on
    # the caller's buffers (and, toolchain permitting, a native C run on a
    # third set of copies), then compare every tensor argument and the
    # config state
    try:
        engine = compile_proc(root)
    except CompileError as exc:
        # degrading to interpreter-vs-interpreter would make the cross-check
        # vacuous; fail loudly instead
        raise DifferentialError(
            f"{root.name}: compiled engine unavailable for differential check: {exc}"
        ) from exc
    ref_env = {sym: (v.copy() if isinstance(v, np.ndarray) else v) for sym, v in env.items()}
    c_values = {n: (v.copy() if isinstance(v, np.ndarray) else v) for n, v in values.items()}
    if config_state is None:
        config_state = {}  # materialised so both legs are comparable
    ref_cfg = dict(config_state)
    c_cfg = dict(config_state)  # the state the C leg's check sees
    _Interp(ref_cfg).exec_proc(root, ref_env)
    engine.run(config_state, [values[n] for n in names], threads)

    _compare_tensors(root, values, ref_env, "compiled engine disagrees with the tree interpreter")
    if set(config_state) != set(ref_cfg) or any(
        not np.allclose(config_state[k], ref_cfg[k], rtol=_DIFF_RTOL, atol=_DIFF_ATOL)
        for k in ref_cfg
    ):
        raise DifferentialError(
            f"{root.name}: compiled engine disagrees with the tree interpreter "
            f"on the final configuration state"
        )
    # third leg: the native C backend, when it can run here at all (a
    # missing toolchain or an unlowerable construct — e.g. config state —
    # skips the leg rather than weakening the compiled-vs-interp check)
    params.bind(c_values, c_cfg, True)
    try:
        run_native(root, c_values, threads=threads)
    except (CodegenError, NativeError) as exc:
        _record_native_fallback(root, exc, stage="differential-c-leg")
    else:
        _compare_tensors(root, c_values, ref_env, "native C backend disagrees with the tree interpreter")
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


def check_equiv(p1, p2, size_env: Dict[str, int]) -> bool:
    """Run two procedures on identical random inputs (seed 0) and compare
    every tensor argument afterwards, within the ``"differential"``
    backend's tolerances.  Returns True when all outputs match.  Both run on
    the process's default engine and thread count."""
    args1 = make_random_args(p1, size_env)
    args2 = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in make_random_args(p2, size_env).items()}
    out1 = run_proc(p1, **args1)
    out2 = run_proc(p2, **args2)
    for name, v1 in out1.items():
        if isinstance(v1, np.ndarray):
            v2 = out2[name]
            if not np.allclose(v1, v2, rtol=_DIFF_RTOL, atol=_DIFF_ATOL):
                return False
    return True
