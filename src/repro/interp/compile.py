"""Compiled execution engine: lower object code to NumPy and run it natively.

The reference interpreter (:mod:`repro.interp.interpreter`) re-dispatches on
every IR node of every iteration — ~0.3M scalar ops/s — which pins functional
equivalence checks to toy sizes.  This module instead *compiles* a procedure
once: the object code is lowered to generated Python source in which

* call sites are *inlined* at compile time (``@instr`` bodies included) with
  fresh symbols and window/affine index composition, so the chunked loops
  scheduled kernels produce become ordinary affine loop nests
  (:func:`_inline_procedure`; calls the inliner declines compile recursively
  as opaque callees),
* every loop gets **one** fold attempt (``_Lowerer._fold_loop``): a loop whose
  body is assignments/reductions with dense affine accesses — directly, or
  inside constant-trip leaf loops (``w*io + ii`` accesses, the chunked nests
  inlining leaves) — becomes whole-array NumPy statements over the full
  range (``y[0:n] += alpha * x[0:n]``; 2-D regions are basic slices or
  bounds-checked ``as_strided`` views).  Constant-width register temporaries
  expand to ``(chunks, lanes)`` matrices, loop-carried scalars to
  ``(chunks,)`` vectors, invariant-index reductions turn into ``.sum()`` /
  ``.sum(axis=0)``, and affine ``if`` guards (masked ``@instr`` bodies) lower
  to peeled sub-range slices,
* a loop the folder declines becomes a ``range`` loop preceded by a
  ``# not folded: <reason>`` comment (so :func:`compiled_source` answers "why
  did this loop stay scalar"), and its inner loops are tried in turn,
* ``par`` loops are *proven* race-free at lowering
  (:func:`repro.analysis.effects.par_write_classes`, shared with the C
  backend — a source-level ``par(lo, hi)`` is not trusted) and dispatched over
  a thread pool; an unproven one lowers sequentially with a
  ``par-unlowerable`` event, and
* windows become NumPy views.

The generated source is ``exec``-ed once and the callable cached.

Backend selection and fallback
------------------------------
``run_proc(..., backend=...)`` selects the engine: ``"compiled"`` (the
default), ``"interp"`` (the tree-walking reference), or ``"differential"``
(run both and cross-check every tensor argument).  The engine compiles a
procedure or declines it as a whole: a statement the lowerer cannot handle
(an exotic window shape, an uncompilable callee, a construct added to the IR
later) raises :class:`CompileError`, and ``run_proc`` records a
``compile-error`` event and runs the tree interpreter instead, so
``backend="compiled"`` is always safe to request.  Generated code needs
nothing of the interpreter: ``__kernel`` takes the configuration-state dict
as its first argument.

Semantics parity
----------------
The scalar lowering mirrors the interpreter operation-for-operation (same
NumPy scalar arithmetic, same integer-division rule, same dtype rounding on
scalar allocations); folded elementwise statements are bit-identical to
the sequential loop.  Only invariant-index reductions differ: NumPy's pairwise
summation reorders floating-point addition, which stays well within
``check_equiv`` tolerances (and is usually *more* accurate); the fold of
chunked reductions (``.sum(axis=0)``) reorders in the same way.
Inlining is semantics-preserving by construction: tensor parameters are
by-reference views (index composition hits the same elements), scalar
parameters are only substituted when the actual is pure and the callee never
writes them, and window actuals must have provably non-negative bounds and
extents provably covering the callee's declared shape, so no
interpreter-side bounds error is skipped.  Negative buffer
indices raise :class:`InterpError` in both engines; positive out-of-bounds
accesses surface as :class:`InterpError` via NumPy's ``IndexError`` (checked
up front, per loop, for folded slices).  Like Exo's C backend, the engine
assumes distinct buffer arguments do not alias.

Caching
-------
Compiled callables are cached per procedure object, the way the native
backend keys its first tier: the identity of the immutable ``ProcDef`` root
(weakly held, so an entry dies with its root), then the resolved ``par``-loop
thread count (the dispatch call sites embed it; see
:mod:`repro.interp.parallel`).  Published roots are never mutated — an edit
yields a new root — so an entry never goes stale; one ``@instr`` called from
many scheduled kernels is one root and compiles once.
:func:`clear_compile_cache` empties the cache.

What lowering asks the prover
-----------------------------
Every question about an index expression goes to :mod:`repro.analysis.linear`,
under the one :class:`FactEnv` the lowerer carries — the root's facts
(``FactEnv.from_proc``: sizes are positive, assertions hold; ``run_proc``
checks the entry procedure's), extended by ``with_loop`` on entering a scalar
loop and dropped again on leaving it.  *Affine* is ``decompose(linearize(e),
*iterators)``: the loop folder's access signatures and the guard peeler both
read integer iterator coefficients and an iterator-free rest off it, and two
rests are the same offset when they are equal as linear forms.  *Constant* is
``const_value``.  *Never negative* — a bounds guard may be elided, a window
bound needs no call-time check — and *covers* — a window spans at least the
callee's declared shape — are lower bounds from ``FactEnv.interval``.  The
``par`` proof runs under the same environment.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.effects import ParUnproven, par_write_classes
from ..analysis.linear import (
    FactEnv,
    LinearForm,
    const_value,
    decompose,
    linear_to_expr,
    linearize,
)
from ..backend.lowering import by_value_refusal, np_dtype_for, substitute_call_body
from ..errors import ExoError
from ..guard.events import record_fallback
from ..ir import nodes as N
from ..ir.build import (
    alpha_rename_stmts,
    collect_syms_written,
    subst_expr,
    subst_stmts,
    used_syms_expr,
    walk,
)
from ..ir.externs import extern_by_name
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType
from .interpreter import InterpError
from .parallel import par_for, resolve_num_threads

__all__ = [
    "CompileError",
    "CompiledProc",
    "compile_proc",
    "compiled_source",
    "clear_compile_cache",
]


class CompileError(ExoError):
    """The procedure cannot be lowered to NumPy at all (the caller should run
    the tree interpreter instead)."""


class _NoVec(Exception):
    """Internal: this loop cannot be folded (or dispatched); the message says
    why, and the scalar lowering takes over."""


# ---------------------------------------------------------------------------
# Runtime support referenced from generated code
# ---------------------------------------------------------------------------


def _rt_oob(buf: str, detail: str = "negative index") -> None:
    raise InterpError(f"out-of-bounds access to {buf} ({detail})")


def _rt_stride(arr, dim: int) -> int:
    return arr.strides[dim] // arr.itemsize


def _rt_strided2(arr, base: int, n: int, w: int, a: int, b: int, buf: str):
    """A bounds-checked ``(n, w)`` view of 1-D ``arr`` whose element ``(i, j)``
    is ``arr[base + a*i + b*j]`` — the access region of a chunked loop nest
    ``buf[a*io + b*ii + base]`` folded across the outer loop.  Rows are
    guaranteed disjoint by the caller's dependence analysis before the view is
    ever written through."""
    if base < 0 or base + a * (n - 1) + b * (w - 1) >= arr.shape[0]:
        _rt_oob(buf, "vector access out of range")
    s = arr.strides[0]
    if arr.flags.c_contiguous:
        # the same view straight from the constructor: a seventh of the cost
        # of ``as_strided``, which a folded kernel pays per window per row
        return np.ndarray((n, w), arr.dtype, arr, base * s, (a * s, b * s))
    return np.lib.stride_tricks.as_strided(arr[base:], shape=(n, w), strides=(a * s, b * s))


def _rt_cfg_read(state: Dict, key, label: str):
    if key not in state:
        raise InterpError(f"read of configuration field {label} before any write")
    return state[key]


class CompiledProc:
    """A procedure lowered to a Python/NumPy callable.

    ``source`` is the generated Python text (useful for debugging and tested
    directly), ``vector_loops`` counts loops lowered to whole-array NumPy
    statements (innermost or chunked outer loops), ``inlined_calls`` counts
    call sites substituted by the cross-procedure inliner before lowering,
    and ``par_loops`` counts ``pragma == "par"`` loops lowered to multicore
    chunk dispatch (:func:`repro.interp.parallel.par_for`).
    """

    __slots__ = ("name", "source", "fn", "vector_loops", "inlined_calls", "par_loops")

    def __init__(
        self, name: str, source: str, fn, vector_loops: int, inlined_calls: int = 0, par_loops: int = 0
    ):
        self.name = name
        self.source = source
        self.fn = fn
        self.vector_loops = vector_loops
        self.inlined_calls = inlined_calls
        self.par_loops = par_loops

    def stats(self) -> Dict[str, int]:
        """The compile statistics as a plain dict (benchmark plumbing)."""
        return {
            "vector_loops": self.vector_loops,
            "inlined_calls": self.inlined_calls,
            "par_loops": self.par_loops,
        }

    def run(self, config_state: Dict, argvals: Sequence[object]) -> None:
        """Execute on ``argvals`` (in parameter order); configuration writes
        and reads go to ``config_state``, shared with every compiled callee."""
        try:
            self.fn(config_state, *argvals)
        except IndexError as exc:
            raise InterpError(f"out-of-bounds access while executing compiled {self.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

# ProcDef root (by identity, weakly held) -> {resolved thread count:
# CompiledProc}, the shape of the native backend's tier 1.  Roots are
# immutable once built, so identity is an exact key, and an entry dies with
# its root.  Compilation runs outside the lock; a thread that lost a compile
# race adopts the winner's object, so one root resolves to one CompiledProc.
_by_root: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def compile_proc(procedure, *, threads: Optional[int] = None) -> CompiledProc:
    """Compile a :class:`Procedure` (or raw ``ProcDef``) to NumPy, memoised.

    ``threads`` is the worker count ``par`` loops dispatch over (``None``
    defers to ``REPRO_NUM_THREADS`` / the CPU count); the resolved count is
    embedded in the generated dispatch calls and is therefore part of the
    cache key.  Raises :class:`CompileError` when the lowerer cannot handle
    some statement of the procedure.
    """
    root = getattr(procedure, "_root", procedure)
    nthreads = resolve_num_threads(threads)
    engines = _by_root.get(root)
    hit = engines.get(nthreads) if engines is not None else None
    if hit is not None:
        return hit
    try:
        work, n_inlined = _inline_procedure(root)
        engine = _Lowerer(work, threads=nthreads).compile()
        engine.inlined_calls = n_inlined
    except CompileError:
        raise
    except Exception as exc:  # a lowering bug: never kill a run
        raise CompileError(f"cannot lower {root.name}: {type(exc).__name__}: {exc}") from exc
    with _lock:
        return _by_root.setdefault(root, {}).setdefault(nthreads, engine)


def compiled_source(procedure, *, threads: Optional[int] = None) -> str:
    """The generated Python source for a procedure (compiles if needed)."""
    return compile_proc(procedure, threads=threads).source


def clear_compile_cache() -> None:
    with _lock:
        _by_root.clear()


# ---------------------------------------------------------------------------
# Cross-procedure inlining (compile-time)
# ---------------------------------------------------------------------------

# Soft budget on the statement count added by inlining: once exhausted,
# remaining call sites stay calls (which still compile recursively).  Set far
# above any real scheduled kernel; this only guards pathological expansion.
_INLINE_STMT_BUDGET = 20_000


def _never_negative(env: FactEnv, lf: LinearForm) -> bool:
    """Does ``env`` prove ``lf >= 0``?  The one question guard elision and
    the inliner's window checks ask of the prover."""
    lo, _hi = env.interval(lf)
    return lo is not None and lo >= 0


def _stmt_count(stmts: Sequence[N.Stmt]) -> int:
    n = 0
    for s in stmts:
        n += 1
        if isinstance(s, N.For):
            n += _stmt_count(s.body)
        elif isinstance(s, N.If):
            n += _stmt_count(s.body) + _stmt_count(s.orelse)
    return n


def _inline_procedure(root: N.ProcDef) -> Tuple[N.ProcDef, int]:
    """Substitute compiled callee bodies (including ``@instr`` bodies) into
    ``root`` at compile time.

    Calls are inlined bottom-up: each callee's body is itself inlined first
    (memoised per callee), then alpha-renamed per call site and substituted
    with window/affine index composition
    (:func:`repro.backend.lowering.substitute_call_body`).  A call site is
    *declined* — left as a call, which still compiles recursively — when:

    * a window actual views a scalar cell (``t[0:1]``), or has a bound not
      provably non-negative (the interpreter rejects negative window bounds
      at call time; inlining would lose that check),
    * the callee writes a scalar parameter, or
      :func:`~repro.backend.lowering.by_value_refusal` refuses the call (a
      scalar actual that is not a pure cheap expression, or one — or a window
      bound — that reads a buffer the call can write: substitution
      re-evaluates it at every use, so by-value semantics would be lost; the
      ``inline`` primitive refuses by the same rule),
    * the statement budget is exhausted.

    The call graph cannot be cyclic: a ``Call`` names a procedure that
    existed when its caller's root was built.

    Returns the (possibly new) root and the number of call sites substituted,
    counting sites inside expanded callee bodies.
    """
    budget = [_INLINE_STMT_BUDGET - _stmt_count(root.body)]
    # callee ProcDef id -> (inlined body template, nested inline count, size,
    # symbols the template writes)
    memo: Dict[int, Tuple[List[N.Stmt], int, int, Set[Sym]]] = {}

    def callee_template(cdef: N.ProcDef):
        if id(cdef) not in memo:
            tensors = {a.name for a in cdef.args if isinstance(a.typ, TensorType)}
            counter = [0]
            body = xform_stmts(cdef.body, tensors, FactEnv.from_proc(cdef), {}, counter)
            memo[id(cdef)] = (body, counter[0], _stmt_count(body), collect_syms_written(body))
        return memo[id(cdef)]

    def try_inline_call(
        s: N.Call, tensors: Set[Sym], env: FactEnv, wbase: Dict[Sym, Sym], counter
    ) -> Optional[List[N.Stmt]]:
        cdef = getattr(s.proc, "_root", s.proc)
        body_tpl, nested, size, written = callee_template(cdef)
        if by_value_refusal(cdef.args, s.args, wbase) is not None:
            return None
        scalar_map = {
            fa.name: actual
            for fa, actual in zip(cdef.args, s.args)
            if not isinstance(fa.typ, TensorType)
        }
        for fa, actual in zip(cdef.args, s.args):
            if isinstance(fa.typ, TensorType):
                if isinstance(actual, N.WindowExpr):
                    if actual.name not in tensors:
                        return None
                    for d in actual.idx:
                        lo = d.lo if isinstance(d, N.Interval) else d.pt
                        if not _never_negative(env, linearize(lo)):
                            return None
                    # the window extent must provably cover the callee's
                    # declared shape (`hi - lo >= shape`): the interpreter
                    # materialises windows as views and errors on accesses
                    # past the VIEW, composed accesses only past the base
                    intervals = [d for d in actual.idx if isinstance(d, N.Interval)]
                    for d, se in zip(intervals, fa.typ.shape):
                        shape = linearize(subst_expr(se, scalar_map))
                        if not _never_negative(env, linearize(d.hi) - linearize(d.lo) - shape):
                            return None
                # a whole tensor (the one other buffer actual) needs no extent
                # check: composed accesses hit the same array with the same indices
            elif fa.name in written:
                return None
        if size > budget[0]:
            return None
        out = substitute_call_body(cdef.args, s.args, alpha_rename_stmts(body_tpl))
        budget[0] -= size
        counter[0] += 1 + nested
        return out

    def xform_stmts(
        stmts: Sequence[N.Stmt], tensors: Set[Sym], env: FactEnv, wbase: Dict[Sym, Sym], counter
    ) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        for s in stmts:
            if isinstance(s, N.Call):
                repl = try_inline_call(s, tensors, env, wbase, counter)
                if repl is not None:
                    out.extend(repl)
                else:
                    out.append(s)
                continue
            if isinstance(s, N.For):
                body = xform_stmts(s.body, tensors, env.with_loop(s.iter, s.lo, s.hi), wbase, counter)
                if const_value(s.lo) == 0 and const_value(s.hi) == 1:
                    # collapse constant trip-1 loops (`divide_loop` residue):
                    # they otherwise hide chunked nests from the loop folder
                    # one level up
                    out.extend(subst_stmts(body, {s.iter: N.Const(0)}))
                    continue
                out.append(N.For(s.iter, s.lo, s.hi, body, s.pragma))
                continue
            if isinstance(s, N.If):
                out.append(
                    N.If(
                        s.cond,
                        xform_stmts(s.body, tensors, env, wbase, counter),
                        xform_stmts(s.orelse, tensors, env, wbase, counter),
                    )
                )
                continue
            if isinstance(s, N.Alloc) and isinstance(s.typ, TensorType):
                tensors.add(s.name)
            elif isinstance(s, N.WindowStmt):
                tensors.add(s.name)
                if s.rhs is not None:
                    wbase[s.name] = wbase.get(s.rhs.name, s.rhs.name)
            out.append(s)
        return out

    tensors = {a.name for a in root.args if isinstance(a.typ, TensorType)}
    counter = [0]
    body = xform_stmts(root.body, tensors, FactEnv.from_proc(root), {}, counter)
    if counter[0] == 0:
        return root, 0
    return N.ProcDef(root.name, root.args, root.preds, body, root.instr), counter[0]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name) or "v"


def _join_kind(a: str, b: str) -> str:
    """Join two 2-D operand axis kinds: 's'calar, 'r'ow (lanes), 'c'olumn
    (chunks), 'f'ull (chunks x lanes)."""
    if a == "s":
        return b
    if b == "s":
        return a
    if a == b:
        return a
    return "f"


def _div_op(e: N.BinOp) -> str:
    """Python's operator for the object-language ``/`` of ``e``: floor
    division unless ``e`` is of a float type."""
    return "/" if e.typ.is_float else "//"


class _Lowerer:
    def __init__(self, root: N.ProcDef, threads: int = 1):
        self.root = root
        self.threads = threads  # par-loop dispatch width (also in the cache key)
        self.in_par = False  # inside a par chunk body: nested pars stay serial
        # what is known here: the root's facts plus the enclosing scalar loops'
        # ranges -- asked by the par proof and by guard elision alike
        self.env = FactEnv.from_proc(root)
        self.lines: List[str] = []
        self.indent = 1
        self.consts: List[object] = []
        self.const_ix: Dict[int, int] = {}
        self.bound: Dict[Sym, Tuple[str, str]] = {}  # sym -> (pyname, kind)
        self.window_base: Dict[Sym, Sym] = {}  # window sym -> root base buffer
        self.scalar_cast: Dict[Sym, int] = {}  # alloc'd scalars: const-ix of np type
        self.cells: Set[Sym] = set()
        self.ntemp = 0
        self.n_vec = 0
        self.n_par = 0

    # -- small utilities ---------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self.ntemp += 1
        return f"__t{self.ntemp}"

    def const(self, obj) -> int:
        ix = self.const_ix.get(id(obj))
        if ix is None:
            ix = len(self.consts)
            self.consts.append(obj)
            self.const_ix[id(obj)] = ix
        return ix

    def bind(self, sym: Sym, kind: str) -> str:
        if sym in self.bound:
            name = self.bound[sym][0]
            self.bound[sym] = (name, kind)
            return name
        name = f"{_sanitize(sym.name)}_{len(self.bound)}"
        self.bound[sym] = (name, kind)
        return name

    # -- entry -------------------------------------------------------------------

    def compile(self) -> CompiledProc:
        root = self.root
        self.cells = self._find_cell_syms(root)
        params: List[str] = []
        for a in root.args:
            if isinstance(a.typ, TensorType):
                kind = "tensor"
            elif a.typ.is_indexable():
                kind = "index"
            else:
                kind = "scalar"
            params.append(self.bind(a.name, kind))
        self.lower_stmts(root.body)  # every statement emits at least one line
        source = f"def __kernel(__ctx, {', '.join(params)}):\n" + "\n".join(self.lines)
        ns = {
            "np": np,
            "__K": self.consts,
            "_oob": _rt_oob,
            "_stride": _rt_stride,
            "_strided2": _rt_strided2,
            "_cfg_read": _rt_cfg_read,
            "_par_for": par_for,
        }
        code = compile(source, f"<repro.compiled:{root.name}>", "exec")
        exec(code, ns)
        return CompiledProc(root.name, source, ns["__kernel"], self.n_vec, par_loops=self.n_par)

    @staticmethod
    def _find_cell_syms(root: N.ProcDef) -> Set[Sym]:
        """Scalar allocations that must be represented as 0-d arrays because
        they are windowed (as ``t[0:1]``, to pass one to a tensor parameter)."""
        scalars = {n.name for n, _ in walk(root) if isinstance(n, N.Alloc) and isinstance(n.typ, ScalarType)}
        return {n.name for n, _ in walk(root) if isinstance(n, N.WindowExpr) and n.name in scalars}

    # -- statements --------------------------------------------------------------

    def lower_stmts(self, stmts: Sequence[N.Stmt]) -> None:
        for s in stmts:
            self.lower_stmt(s)

    def lower_stmt(self, s: N.Stmt) -> None:
        if isinstance(s, (N.Assign, N.Reduce)):
            self.stmt_assign(s, aug=isinstance(s, N.Reduce))
        elif isinstance(s, N.Alloc):
            self.stmt_alloc(s)
        elif isinstance(s, N.For):
            self.stmt_for(s)
        elif isinstance(s, N.If):
            self.stmt_if(s)
        elif isinstance(s, N.Pass):
            self.emit("pass")
        elif isinstance(s, N.Call):
            self.stmt_call(s)
        elif isinstance(s, N.WindowStmt):
            src = self.window_expr(s.rhs)
            base = self.window_base.get(s.rhs.name, s.rhs.name)
            self.emit(f"{self.bind(s.name, 'tensor')} = {src}")
            self.window_base[s.name] = base
        else:  # N.WriteConfig, the one kind left
            key = self.const((id(s.config), s.field_name))
            rhs = self.expr(s.rhs)
            self.emit(f"__ctx[__K[{key}]] = {rhs}")

    def guarded_indices(self, buf_sym: Sym, idx_exprs: Sequence[N.Expr]) -> List[str]:
        """Render scalar index expressions, inserting a negative-index guard
        for any index that is not provably non-negative (positive overflow is
        caught by NumPy's own IndexError)."""
        srcs: List[str] = []
        guards: List[str] = []
        for e in idx_exprs:
            src = self.expr(e)
            if _never_negative(self.env, linearize(e)):
                srcs.append(src)
            else:
                t = self.temp()
                self.emit(f"{t} = {src}")
                guards.append(t)
                srcs.append(t)
        if guards:
            cond = " or ".join(f"{g} < 0" for g in guards)
            self.emit(f"if {cond}:")
            self.emit(f"    _oob({buf_sym.name!r})")
        return srcs

    def stmt_assign(self, s, aug: bool) -> None:
        name, kind = self.bound[s.name]  # arguments, allocations and iterators are bound
        if kind in ("tensor", "cell"):
            if s.idx:
                idxs = self.guarded_indices(s.name, s.idx)
                target = f"{name}[{', '.join(idxs)}]"
            else:
                target = f"{name}[()]"
            rhs = self.expr(s.rhs)
            self.emit(f"{target} {'+=' if aug else '='} {rhs}")
            return
        # plain scalar (or index) local / argument
        rhs = self.expr(s.rhs)
        expr = f"{name} + ({rhs})" if aug else rhs
        cast = self.scalar_cast.get(s.name)
        if cast is not None:
            # mirror the interpreter's dtype rounding on scalar allocations
            expr = f"__K[{cast}]({expr})"
        self.emit(f"{name} = {expr}")

    def stmt_alloc(self, s: N.Alloc) -> None:
        if isinstance(s.typ, TensorType):
            name = self.bind(s.name, "tensor")
            dt = self.const(np_dtype_for(s.typ).type)
            dims = "".join(f"int({self.expr(d)}), " for d in s.typ.shape)
            self.emit(f"{name} = np.zeros(({dims}), dtype=__K[{dt}])")
            return
        # an index, size or bool scalar holds an integer (np_dtype_for is the
        # element type of numeric data, float64 for these)
        dt_type = np_dtype_for(s.typ).type if s.typ.is_numeric else np.int64
        if s.name in self.cells:
            name = self.bind(s.name, "cell")
            self.emit(f"{name} = np.zeros((), dtype=__K[{self.const(dt_type)}])")
            return
        name = self.bind(s.name, "scalar")
        self.scalar_cast[s.name] = self.const(dt_type)
        zero = "0.0" if np.dtype(dt_type).kind == "f" else "0"
        self.emit(f"{name} = {zero}")

    def stmt_for(self, s: N.For) -> None:
        lo_t, hi_t = self.temp(), self.temp()
        self.emit(f"{lo_t} = int({self.expr(s.lo)})")
        self.emit(f"{hi_t} = int({self.expr(s.hi)})")
        if s.pragma == "par" and not self.in_par:
            why = self._attempt(self._par_lower, s, lo_t, hi_t)
            if why is None:
                self.n_par += 1
                return
            record_fallback(self.root.name, "par->seq", "par-unlowerable", detail=why)
        why = self._attempt(self._fold_loop, s, lo_t, hi_t)
        if why is None:
            self.n_vec += 1
            return
        self.emit(f"# not folded: {why}")
        name = self.bind(s.iter, "index")
        self.emit(f"for {name} in range({lo_t}, {hi_t}):")
        self.indent += 1
        outer_env, self.env = self.env, self.env.with_loop(s.iter, s.lo, s.hi)
        self.lower_stmts(s.body)
        self.env = outer_env
        self.indent -= 1

    def stmt_if(self, s: N.If) -> None:
        cond = self.expr(s.cond)
        self.emit(f"if {cond}:")
        self.indent += 1
        self.lower_stmts(s.body)
        self.indent -= 1
        if s.orelse:
            self.emit("else:")
            self.indent += 1
            self.lower_stmts(s.orelse)
            self.indent -= 1

    def stmt_call(self, s: N.Call) -> None:
        cdef = getattr(s.proc, "_root", s.proc)
        callee = compile_proc(cdef, threads=self.threads)
        args_src = ["__ctx"]
        for fa, actual in zip(cdef.args, s.args):
            if isinstance(fa.typ, TensorType):
                args_src.append(self.tensor_arg_expr(actual))
            else:
                args_src.append(self.expr(actual))
        self.emit(f"__K[{self.const(callee.fn)}]({', '.join(args_src)})")

    def tensor_arg_expr(self, actual: N.Expr) -> str:
        if isinstance(actual, N.WindowExpr):
            return self.window_expr(actual)
        return self.bound[actual.name][0]  # a whole tensor, the one other buffer the parser passes

    # -- expressions ----------------------------------------------------------------

    def expr(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            if isinstance(e.val, bool):
                return "True" if e.val else "False"
            return repr(e.val)
        if isinstance(e, N.Read):
            name, kind = self.bound[e.name]
            if kind == "tensor":
                if not e.idx:
                    return name
                idxs = self.guarded_indices(e.name, e.idx)
                return f"{name}[{', '.join(idxs)}]"
            if kind == "cell":
                return f"{name}[()]"
            return name
        if isinstance(e, N.BinOp):
            lhs = self.expr(e.lhs)
            rhs = self.expr(e.rhs)
            if e.op == "/":
                return f"(({lhs}) {_div_op(e)} ({rhs}))"
            if e.op in ("and", "or"):
                return f"(bool({lhs}) {e.op} bool({rhs}))"
            return f"({lhs} {e.op} {rhs})"
        if isinstance(e, N.USub):
            return f"(-{self.expr(e.arg)})"
        if isinstance(e, N.Extern):
            impl = self.const(extern_by_name(e.fname).impl)
            args = ", ".join(self.expr(a) for a in e.args)
            return f"__K[{impl}]({args})"
        if isinstance(e, N.StrideExpr):
            return f"_stride({self.bound[e.name][0]}, {e.dim})"
        if isinstance(e, N.ReadConfig):
            key = self.const((id(e.config), e.field_name))
            label = f"{e.config.name()}.{e.field_name}"
            return f"_cfg_read(__ctx, __K[{key}], {label!r})"
        return self.window_expr(e)  # N.WindowExpr, the one kind left

    def window_expr(self, w: N.WindowExpr) -> str:
        name, kind = self.bound[w.name]
        if kind == "cell":
            # the one window of a scalar allocation, t[0:1]: a 1-vector
            return f"{name}.reshape(1)"
        parts: List[str] = []
        guards: List[str] = []

        def rendered(e: N.Expr) -> str:
            src = self.expr(e)
            if _never_negative(self.env, linearize(e)):
                return src
            t = self.temp()
            self.emit(f"{t} = {src}")
            guards.append(t)
            return t

        for d in w.idx:
            if isinstance(d, N.Interval):
                parts.append(f"{rendered(d.lo)}:{rendered(d.hi)}")
            else:
                parts.append(rendered(d.pt))
        if guards:
            cond = " or ".join(f"{g} < 0" for g in guards)
            self.emit(f"if {cond}:")
            self.emit(f"    _oob({w.name.name!r})")
        return f"{name}[{', '.join(parts)}]"

    # -- loop strategies: parallel dispatch, whole-array fold -----------------------

    def _attempt(self, lower, s: N.For, lo_t: str, hi_t: str) -> Optional[str]:
        """Try one non-scalar lowering of loop ``s``.  Returns ``None`` when
        it emitted the loop, otherwise the reason it declined — with anything
        it emitted rolled back, so the caller can lower ``s`` another way."""
        mark = len(self.lines)
        try:
            lower(s, lo_t, hi_t)
            return None
        except (_NoVec, ParUnproven) as exc:
            del self.lines[mark:]
            return " ".join(str(exc).split()) or type(exc).__name__

    def _par_lower(self, s: N.For, lo_t: str, hi_t: str) -> None:
        """Emit ``def <chunk>(lo, hi, *privs): <sequential loop>`` plus a
        ``_par_for`` dispatch call.

        The chunk body is the *ordinary sequential lowering* of the same loop
        over a parametric sub-range — including its fold — so each chunk runs
        the exact whole-array code the sequential build runs, just on a slice
        of the iteration space.  Which writes are safe is decided by
        :func:`~repro.analysis.effects.par_write_classes` (the rule the C
        backend lowers from too); this is only the mechanism: *shared*
        buffers are written in place, *reduce* buffers are privatized (each
        chunk accumulates into a zeroed copy; :func:`par_for` combines the
        partials in chunk order).
        """
        it = s.iter
        body = list(s.body)
        priv_arrays: List[Sym] = []
        priv_scalars: List[Sym] = []
        for sym, cells in par_write_classes(s, self.env).items():
            if cells is None:
                continue  # shared: chunks write it in place
            # a loop writes no control value: the rest are scalar data
            (priv_arrays if self.bound[sym][1] in ("tensor", "cell") else priv_scalars).append(sym)
        priv_arrays.sort(key=lambda sym: self.bound[sym][0])
        priv_scalars.sort(key=lambda sym: self.bound[sym][0])

        lo_sym, hi_sym = Sym("__plo"), Sym("__phi")
        priv_names = [self.bound[sym][0] for sym in priv_arrays]
        params = [self.bind(lo_sym, "index"), self.bind(hi_sym, "index")] + priv_names
        # chunk bounds lie inside [lo, hi], so both inherit lo's lower bound
        lo_b, _ = self.env.interval(linearize(s.lo))
        outer_env, self.env = self.env, self.env.copy()
        if lo_b is not None:
            self.env.add_range(lo_sym, lo_b, None)
            self.env.add_range(hi_sym, lo_b, None)
        fn_t = self.temp()
        self.emit(f"def {fn_t}({', '.join(params)}):")
        self.indent += 1
        for sym in priv_scalars:
            # each chunk accumulates its delta from zero; par_for's caller
            # (below) folds the deltas back in chunk order
            name = self.bound[sym][0]
            cast = self.scalar_cast.get(sym)
            zero = "0" if cast is not None and np.dtype(self.consts[cast]).kind != "f" else "0.0"
            self.emit(f"{name} = {zero}")
        inner = N.For(it, N.Read(lo_sym, []), N.Read(hi_sym, []), body, "seq")
        prev_in_par, self.in_par = self.in_par, True
        try:
            self.stmt_for(inner)
        finally:
            self.in_par, self.env = prev_in_par, outer_env
        rets = "".join(f"{self.bound[sym][0]}, " for sym in priv_scalars)
        self.emit(f"return ({rets})")
        self.indent -= 1
        res_t = self.temp()
        arrs = "".join(f"{nm}, " for nm in priv_names)
        self.emit(
            f"{res_t} = _par_for({fn_t}, {lo_t}, {hi_t}, {self.threads}, "
            f"({arrs}), {self.root.name!r}, {bool(priv_arrays or priv_scalars)})"
        )
        for j, sym in enumerate(priv_scalars):
            name = self.bound[sym][0]
            cast = self.scalar_cast.get(sym)
            chunk_t = self.temp()
            self.emit(f"for {chunk_t} in {res_t}:")
            expr = f"{name} + {chunk_t}[{j}]"
            if cast is not None:
                expr = f"__K[{cast}]({expr})"
            self.emit(f"    {name} = {expr}")

    def _fold_loop(self, s: N.For, lo_t: str, hi_t: str) -> None:
        """Fold loop ``s`` — and the constant-trip leaf loops directly inside
        it — into whole-array NumPy statements, or raise ``_NoVec(reason)``.

        After cross-procedure inlining, scheduled kernels are outer loops over
        chunks whose bodies are vector-register allocations plus constant-trip
        leaf loops accessing ``a*io + b*ii + off`` (the shape ``divide_loop``
        plus ``@instr`` substitution produces); an ordinary innermost map or
        reduction loop is the same nest with no leaf loops.  Per body form:

        * a top-level assignment/reduction is one statement over the
          ``(chunks,)`` iteration axis; each leaf-loop statement is one over a
          ``(chunks, lanes)`` region of the base buffer — basic slicing when
          the two iterators stride different dimensions, a bounds-checked
          ``as_strided`` view when one dimension mixes both;
        * constant-shape register allocations expand to ``(chunks, lanes)``
          matrices (allocated zeroed once — each row is one iteration's
          private register, so per-iteration zero-fill semantics hold);
        * scalar allocations are lane-less registers: a name bound to a
          ``(chunks,)`` vector (classic scalar expansion), which must be
          assigned before it is read and is copied when bound to a bare view;
        * an ``if`` whose condition is an affine bound on the iterator
          (masked ``@instr`` bodies) runs its statements over the peeled
          sub-range (:meth:`_clip_from_cond`);
        * reductions at iterator-invariant cells, and into scalars bound
          outside the loop, become ``.sum()`` / ``.sum(axis=0)``.

        Safety (the only dependence rule): all accesses to a written buffer
        must stride the same dimension with the same coefficient and stay
        within one period of it (rows of distinct iterations are then
        disjoint), and every write/read signature pair must be identical or
        provably disjoint within a row (whole-statement evaluation then
        matches the sequential interleaving).
        """
        iv_o = s.iter
        body_written = collect_syms_written(s.body)

        # ---- classify the body ---------------------------------------------
        # plan entries carry a leaf-loop group id: statements of the SAME
        # leaf loop interleave per lane sequentially, so conflicting writes
        # within a group need extra validation; across groups the statement
        # barrier of the fold preserves order.  `clip` is None or
        # ("lt"|"ge", bound): the statement runs only for iterations below /
        # from `bound`.
        temps: Dict[Sym, Tuple[str, int, int]] = {}  # register -> (pyname, lanes, dtype ix)
        vtemps: Dict[Sym, Tuple[str, ScalarType]] = {}  # scalar alloc -> (pyname, declared type)
        vkind: Dict[Sym, str] = {}  # ... -> axis kind of its value, once assigned
        plan: List[Tuple[Optional[Sym], int, N.Stmt, int, Optional[Tuple[str, N.Expr]]]] = []
        gid = 0
        for st in s.body:
            if isinstance(st, N.Pass):
                continue
            if isinstance(st, N.Alloc):
                if st.name in self.cells:
                    raise _NoVec(f"{st.name.name} is windowed or passed by reference")
                if isinstance(st.typ, ScalarType):
                    vtemps[st.name] = (f"__v{len(vtemps)}", st.typ)
                    continue
                lanes = const_value(st.typ.shape[0]) if len(st.typ.shape) == 1 else None
                if lanes is None or lanes < 1:
                    raise _NoVec(f"{st.name.name} is not a constant-width 1-D register")
                temps[st.name] = (f"__w{len(temps)}", lanes, self.const(np_dtype_for(st.typ).type))
                continue
            if isinstance(st, N.For):
                W = const_value(st.hi)
                if W is None or const_value(st.lo) != 0:
                    raise _NoVec(f"inner loop {st.iter.name} has no constant trip count")
                if W <= 0:
                    continue
                if st.iter is iv_o:
                    raise _NoVec("inner loop rebinds the iterator")
                gid += 1
                for inner in st.body:
                    if isinstance(inner, N.Pass):
                        continue
                    if not isinstance(inner, (N.Assign, N.Reduce)):
                        raise _NoVec(f"{type(inner).__name__} inside inner loop {st.iter.name}")
                    plan.append((st.iter, W, inner, gid, None))
                continue
            if isinstance(st, (N.Assign, N.Reduce)):
                gid += 1
                plan.append((None, 1, st, gid, None))
                continue
            if isinstance(st, N.If) and not st.orelse:
                clip = self._clip_from_cond(st.cond, iv_o)
                if clip is None:
                    raise _NoVec("guard is not an affine bound on the iterator")
                for inner in st.body:
                    if isinstance(inner, N.Pass):
                        continue
                    if not isinstance(inner, (N.Assign, N.Reduce)):
                        raise _NoVec(f"{type(inner).__name__} under a guard")
                    gid += 1
                    plan.append((None, 1, inner, gid, clip))
                continue
            raise _NoVec(f"{type(st).__name__} in loop body")
        if not plan:
            raise _NoVec("empty loop body")

        reads_in_body = {
            n.name
            for st in s.body
            for n, _ in walk(st)
            if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr))
        }
        # scalars bound outside the loop may only be sum-accumulated
        accs: Set[Sym] = set()
        for sym in body_written:
            if sym in temps or sym in vtemps:
                continue
            # (an allocation the body makes is a register or a scalar temporary
            # above; anything else written was bound before the loop)
            info = self.bound[sym]
            if info[1] in ("scalar", "index"):
                if sym in reads_in_body or any(
                    st.name is sym and isinstance(st, N.Assign) for _ii, _W, st, _g, _c in plan
                ):
                    raise _NoVec(f"scalar {sym.name} carries a value between iterations")
                accs.add(sym)

        def invariant(e: N.Expr, what: str) -> None:
            """``e`` (an index offset or guard bound) must not change while
            the loop runs, and must lower without emitting guards."""
            syms = used_syms_expr(e)
            if syms & body_written or any(o in temps or o in vtemps for o in syms):
                raise _NoVec(f"{what} varies inside the loop")
            for n, _ in walk(e):
                if isinstance(n, N.Read) and n.idx or isinstance(n, N.WindowExpr):
                    raise _NoVec(f"{what} is read from a buffer")

        pre: List[str] = []
        body_lines: List[str] = []
        hoists: Dict[str, str] = {}
        clip_rng: Dict[Tuple[str, str], Tuple[str, str]] = {}
        region_cache: Dict[Tuple, Tuple[str, str]] = {}
        # (sym, dims, lane count, is_write, is_reduce, leaf-loop group)
        accesses: List[Tuple[Sym, Tuple, int, bool, bool, int]] = []
        temp_accesses: List[Tuple[Sym, Tuple, int, bool, bool, int]] = []
        # the statement being lowered: its leaf-loop group, the iteration
        # sub-range it runs over, and where its bounds guards and view
        # bindings go (`pre` for the full range, a conditional block for a
        # clipped one)
        cur_gid, lo_r, hi_r, sink, clipped = 0, lo_t, hi_t, pre, False

        def hoisted(src: str) -> str:
            """A temp bound once, ahead of the statements, to loop-invariant
            ``src`` (index offsets, the trip count, iotas)."""
            t = hoists.get(src)
            if t is None:
                t = hoists[src] = self.temp()
                pre.append(f"{t} = {src}")
            return t

        def count() -> str:
            return hoisted(f"{hi_t} - {lo_t}")

        for _sym, (tname, lanes, dt) in temps.items():
            pre.append(f"{tname} = np.zeros(({count()}, {lanes}), dtype=__K[{dt}])")

        def rng_for(clip: Tuple[str, N.Expr]) -> Tuple[str, str]:
            kind, bexpr = clip
            invariant(bexpr, "guard bound")
            key = (kind, self.expr(bexpr))
            rng = clip_rng.get(key)
            if rng is None:
                bt, t = self.temp(), self.temp()
                pre.append(f"{bt} = int({key[1]})")
                if kind == "lt":
                    pre.append(f"{t} = min({hi_t}, {bt})")
                    rng = (lo_t, t)
                else:
                    pre.append(f"{t} = max({lo_t}, {bt})")
                    rng = (t, hi_t)
                clip_rng[key] = rng
            return rng

        def dims_of(idx_exprs: Sequence[N.Expr], ii: Optional[Sym]) -> Tuple:
            """Per-dimension signature (a, b, const, residual form, off src,
            off provably non-negative) of an access ``a*iv_o + b*ii + off``."""
            iters = (iv_o,) if ii is None else (iv_o, ii)
            dims = []
            for e in idx_exprs:
                dec = decompose(linearize(e), *iters)
                if dec is None:
                    raise _NoVec("index is not affine in the loop iterators")
                coeffs, off = dec
                a, b = coeffs[0], (coeffs[1] if ii is not None else 0)
                if a < 0 or b < 0:
                    raise _NoVec("negative stride")
                off_expr = linear_to_expr(off)
                invariant(off_expr, "index offset")
                c = off.constant_term()
                resid = off - LinearForm.constant(c)
                dims.append(
                    (a, b, c, resid, self.expr(off_expr), _never_negative(self.env, off))
                )
            return tuple(dims)

        def temp_region(sym: Sym, dims: Tuple, W: int) -> Tuple[str, str]:
            tname, lanes, _dt = temps[sym]
            if clipped:
                raise _NoVec("register access under a guard")  # rows span the full range
            a, b, c, resid, _off, _nn = dims[0]
            if a != 0 or not resid.is_zero():
                # rows are per-iteration private registers
                raise _NoVec(f"register {sym.name} lane depends on the outer iterator")
            last = c if b == 0 or W == 1 else c + b * (W - 1)
            if c < 0 or last >= lanes:
                raise _NoVec(f"register {sym.name} lane out of range")
            if last == c:
                # single lane (including trip-1 leaf loops): keep the region
                # 1-D so it composes with other (chunks,)-shaped operands
                return (f"{tname}[:, {c}]", "c")
            step = f":{b}" if b != 1 else ""
            return (f"{tname}[:, {c}:{last + 1}{step}]", "f")

        def buf_region(sym: Sym, dims: Tuple, W: int) -> Tuple[str, str]:
            """(source, axis kind) for a buffer access region; binds view
            temporaries and emits bounds guards on first use."""
            key = (sym, dims, W, lo_r, hi_r)
            hit = region_cache.get(key)
            if hit is not None:
                return hit
            name, bkind = self.bound[sym]
            if bkind == "cell":
                res = region_cache[key] = (f"{name}[()]", "s")
                return res
            da = [d for d, t in enumerate(dims) if t[0] != 0]
            db = [d for d, t in enumerate(dims) if t[1] != 0]
            if len(da) > 1 or len(db) > 1:
                # a diagonal: independent slices would make it an outer product
                raise _NoVec(f"an iterator strides two dimensions of {sym.name}")
            guards: List[str] = []

            def point(t: Tuple) -> str:
                pt = hoisted(t[4])
                if not t[5]:
                    guards.append(f"if {pt} < 0:")
                    guards.append(f"    _oob({sym.name!r})")
                return pt

            def flat_if_single_lane(vt: str) -> Tuple[str, str]:
                if W > 1:
                    return (vt, "f")
                # trip-1 leaf loop: flatten the (chunks, 1) view so it
                # composes with (chunks,)-shaped operands
                vtf = self.temp()
                sink.append(f"{vtf} = {vt}[:, 0]")
                return (vtf, "c")

            if da and da == db:
                # one dimension mixes both iterators: strided (chunks, lanes)
                # view of the (innermost) dimension via _strided2
                d = da[0]
                if d != len(dims) - 1:
                    raise _NoVec(f"mixed-stride dimension of {sym.name} is not innermost")
                a, b, _c, _resid, off_src, _nn = dims[d]
                base_parts = [point(t) for t in dims[:-1]]
                base = name if not base_parts else f"{name}[{', '.join(base_parts)}, :]"
                sink.extend(guards)
                o0, vt = hoisted(off_src), self.temp()
                sink.append(
                    f"{vt} = _strided2({base}, {o0} + {a} * {lo_r}, {count()}, {W}, {a}, {b}, {sym.name!r})"
                )
                res = flat_if_single_lane(vt)
                region_cache[key] = res
                return res
            parts: List[str] = []
            axes = ""
            for d, t in enumerate(dims):
                a, b, _c, _resid, off_src, _nn = t
                if a == 0 and b == 0:
                    parts.append(point(t))
                    continue
                base = "" if off_src == "0" else f"{hoisted(off_src)} + "
                if a == 1:
                    start, last = f"{base}{lo_r}", f"{base}{hi_r} - 1"
                    stop, step = f"{base}{hi_r}", ""
                elif a != 0:
                    start = f"{base}{a} * {lo_r}"
                    last = f"{base}{a} * ({hi_r} - 1)"
                    stop, step = f"{last} + 1", f":{a}"
                else:
                    start = hoisted(off_src) if off_src != "0" else "0"
                    last = f"{start} + {b * (W - 1)}" if b * (W - 1) else start
                    stop = f"{last} + 1"
                    step = f":{b}" if b != 1 else ""
                axes += "o" if a != 0 else "i"
                guards.append(f"if ({start}) < 0 or ({last}) >= {name}.shape[{d}]:")
                guards.append(f"    _oob({sym.name!r}, 'vector access out of range')")
                parts.append(f"{start}:{stop}{step}")
            sink.extend(guards)
            src = f"{name}[{', '.join(parts)}]"
            if "o" in axes:
                vt = self.temp()
                sink.append(f"{vt} = {src}{'.T' if axes == 'io' else ''}")
                res = flat_if_single_lane(vt) if "i" in axes else (vt, "c")
            else:
                res = (src, "r" if axes else "s")
            region_cache[key] = res
            return res

        def vx(e: N.Expr, ii: Optional[Sym], W: int) -> Tuple[str, str]:
            """Lower an expression to (source, axis kind).  'c' sources are
            reshaped to (chunks, 1) whenever the statement has a lane axis so
            NumPy broadcasting matches the loop-nest semantics."""

            def col(src: str, kind: str = "c") -> Tuple[str, str]:
                return (f"{src}[:, None]" if kind == "c" and W > 1 else src, kind)

            if isinstance(e, N.Const):
                if isinstance(e.val, bool):
                    return ("True" if e.val else "False", "s")
                return (repr(e.val), "s")
            if isinstance(e, N.Read):
                sym = e.name
                if sym is iv_o and not e.idx:
                    if clipped:
                        raise _NoVec("iterator value read under a guard")  # iota spans the full range
                    return col(hoisted(f"np.arange({lo_t}, {hi_t})"))
                if ii is not None and sym is ii and not e.idx:
                    return (hoisted(f"np.arange(0, {W})"), "r")
                if sym in temps:
                    if not e.idx:
                        raise _NoVec(f"whole-register read of {sym.name}")
                    tdims = dims_of(e.idx, ii)
                    temp_accesses.append((sym, tdims, W, False, False, cur_gid))
                    return col(*temp_region(sym, tdims, W))
                if sym in vtemps:
                    if sym not in vkind or clipped or e.idx:
                        # a clipped vector would be misaligned against it
                        raise _NoVec(f"scalar {sym.name} read before assigned, or under a guard")
                    return col(vtemps[sym][0], vkind[sym])
                name, bkind = self.bound[sym]  # bound before the loop, like every other read
                if bkind in ("scalar", "index"):
                    return (name, "s")
                if bkind == "tensor" and not e.idx:
                    raise _NoVec(f"whole-buffer read of {sym.name}")
                dims = dims_of(e.idx, ii)
                accesses.append((sym, dims, W, False, False, cur_gid))
                return col(*buf_region(sym, dims, W))
            if isinstance(e, N.BinOp):
                if e.op in ("and", "or"):
                    raise _NoVec(f"boolean {e.op!r} has no whole-array form")
                l, lk = vx(e.lhs, ii, W)
                r, rk = vx(e.rhs, ii, W)
                kind = _join_kind(lk, rk)
                if e.op == "/":
                    return (f"({l} {_div_op(e)} {r})", kind)
                return (f"({l} {e.op} {r})", kind)
            if isinstance(e, N.USub):
                src, kind = vx(e.arg, ii, W)
                return (f"(-{src})", kind)
            if isinstance(e, N.Extern):
                subs = [vx(a, ii, W) for a in e.args]
                defn = extern_by_name(e.fname)
                out_kind = "s"
                for _src, kind in subs:
                    out_kind = _join_kind(out_kind, kind)
                if out_kind == "s":
                    impl = self.const(defn.impl)
                    return (f"__K[{impl}]({', '.join(src for src, _kind in subs)})", "s")
                # the registry's whole-array template (np_template); an
                # extern registered without one blocks the fold
                rendered = defn.np_apply([src for src, _kind in subs])
                if rendered is None:
                    raise _NoVec(f"extern {e.fname} has no whole-array template")
                return (rendered, out_kind)
            raise _NoVec(f"{type(e).__name__} expression")

        # ---- statement lowering --------------------------------------------
        for ii, W, st, cur_gid, clip in plan:
            aug = isinstance(st, N.Reduce)
            tgt = st.name
            lines: List[str] = []
            clipped = clip is not None
            if clipped:
                (lo_r, hi_r), sink = rng_for(clip), []
            else:
                lo_r, hi_r, sink = lo_t, hi_t, pre
            if tgt in temps:
                if not st.idx:
                    raise _NoVec(f"whole-register write of {tgt.name}")
                tdims = dims_of(st.idx, ii)
                src, kind = temp_region(tgt, tdims, W)
                if kind == "c" and W > 1:
                    raise _NoVec(f"every lane writes the same element of {tgt.name}")
                temp_accesses.append((tgt, tdims, W, True, aug, cur_gid))
                rhs, _rk = vx(st.rhs, ii, W)
                lines.append(f"{src} {'+=' if aug else '='} {rhs}")
            elif tgt in vtemps:
                rhs, rk = vx(st.rhs, ii, W)
                if st.idx or clipped or W > 1 or rk not in ("s", "c"):
                    raise _NoVec(f"scalar {tgt.name} written per lane or under a guard")
                name, decl = vtemps[tgt]
                if aug:
                    if tgt not in vkind:
                        raise _NoVec(f"scalar {tgt.name} reduced before assigned")
                    value = f"{name} + ({rhs})"
                    vkind[tgt] = _join_kind(vkind[tgt], rk)
                else:
                    if rk == "c" and isinstance(st.rhs, N.Read):
                        # unary + copies: a bare view must not stay live on a
                        # buffer that later statements may overwrite
                        rhs = f"(+{rhs})"
                    value = rhs
                    vkind[tgt] = rk
                if st.rhs.typ != decl:
                    # the value is rounded to the temporary's precision, as
                    # the other engines store it
                    value = f"__K[{self.const(np_dtype_for(decl).type)}]({value})"
                lines.append(f"{name} = {value}")
            else:
                name, bkind = self.bound[tgt]
                if tgt in accs:
                    dims, src, kind = (), name, "s"
                elif bkind == "tensor" and not st.idx:
                    raise _NoVec(f"whole-buffer write of {tgt.name}")
                else:
                    dims = dims_of(st.idx, ii)
                    src, kind = buf_region(tgt, dims, W)
                    accesses.append((tgt, dims, W, True, aug, cur_gid))
                rhs, rk = vx(st.rhs, ii, W)
                if any(t[0] for t in dims):
                    # varying regions are always view temps ('c'/'f'): write
                    # through the view
                    if kind == "c" and W > 1:
                        raise _NoVec(f"every lane writes the same element of {tgt.name}")
                    lines.append(f"{src} += {rhs}" if aug else f"{src}[...] = {rhs}")
                elif not aug or rk not in ("c", "f"):
                    # invariant region: only whole-range sum reductions are sound
                    raise _NoVec(f"{tgt.name} is written at an iterator-invariant index")
                elif kind == "r":
                    lines.append(f"{src} += ({rhs}).sum(axis=0, dtype={name}.dtype)")
                else:
                    # a lane-invariant rhs is added once per LANE per chunk by the
                    # sequential loop: scale the chunk sum by the lane count
                    mult = f"{W} * " if rk == "c" and W > 1 else ""
                    if tgt not in accs:
                        lines.append(f"{src} += {mult}({rhs}).sum(dtype={name}.dtype)")
                    else:
                        total = f"{name} + {mult}({rhs}).sum()"
                        cast = self.scalar_cast.get(tgt)
                        if cast is not None:
                            # mirror the interpreter's dtype rounding on scalar allocations
                            total = f"__K[{cast}]({total})"
                        lines.append(f"{name} = {total}")
            if clipped:
                # peeled sub-range: guards, views and the statement only run
                # when the clipped range is non-empty
                body_lines.append(f"if {hi_r} > {lo_r}:")
                lines = [f"    {line}" for line in sink + lines]
            body_lines.extend(lines)

        # ---- dependence validation -----------------------------------------
        # windows alias their base buffer: if any buffer in an alias group is
        # written while the group is accessed under more than one name, the
        # per-symbol analysis below would miss the dependence
        per_base: Dict[Sym, Tuple[Set[Sym], List[bool]]] = {}
        for sym, _dims, _W, is_write, _aug, _g in accesses:
            syms, writes = per_base.setdefault(self.window_base.get(sym, sym), (set(), []))
            syms.add(sym)
            writes.append(is_write)
        for syms, writes in per_base.values():
            if len(syms) > 1 and any(writes):
                raise _NoVec("a written buffer is also accessed through a window alias")

        def a_dim_of(acc) -> Optional[int]:
            ds = [d for d, t in enumerate(acc[1]) if t[0] != 0]
            return ds[0] if len(ds) == 1 else None

        def same_sig(x, y) -> bool:
            return x[1] == y[1] and x[2] == y[2]

        def row_disjoint(x, y) -> bool:
            # provably disjoint footprints within one outer iteration
            for tx, ty in zip(x[1], y[1]):
                if tx[3] != ty[3]:
                    continue  # incomparable residual offsets in this dim
                lo1, hi1 = tx[2], tx[2] + tx[1] * (x[2] - 1) + 1
                lo2, hi2 = ty[2], ty[2] + ty[1] * (y[2] - 1) + 1
                if hi1 <= lo2 or hi2 <= lo1:
                    return True
            return False

        def check_rows(name: str, accs_: List[Tuple]) -> None:
            """Within one iteration's row: each write/read pair must hit
            identical or provably disjoint lanes (a lane-shifted pair such as
            ``w[i+1] = w[i]`` would lose the sequential propagation), and two
            writes of the SAME leaf loop likewise, or the fold reverses their
            per-lane ordering (across groups the statement barrier holds)."""
            writes = [a for a in accs_ if a[3]]
            pairs = [(w, r) for w in writes for r in accs_ if not r[3]] + [
                (w1, w2) for i, w1 in enumerate(writes) for w2 in writes[i + 1 :] if w1[5] == w2[5]
            ]
            for x, y in pairs:
                if not (same_sig(x, y) or row_disjoint(x, y)):
                    raise _NoVec(f"accesses to {name} overlap within an iteration")

        per_buf: Dict[Sym, List[Tuple]] = {}
        for acc in accesses:
            per_buf.setdefault(acc[0], []).append(acc)
        for sym, accs_ in per_buf.items():
            writes = [a for a in accs_ if a[3]]
            if not writes:
                continue
            inv_writes = [a for a in writes if not any(t[0] for t in a[1])]
            if inv_writes:
                # invariant-index reductions: every access to the buffer must
                # be such a reduce (sum reordering is the only divergence,
                # within check_equiv tolerances); a read would observe
                # partial sums
                if len(inv_writes) != len(accs_) or any(not a[4] for a in inv_writes):
                    raise _NoVec(f"{sym.name} is reduced at an invariant index and accessed otherwise")
                continue
            # buf_region refused a second strided dimension, and the write is
            # not invariant: exactly one dimension carries the iterator
            d0 = a_dim_of(writes[0])
            ref = writes[0][1][d0]
            for acc in accs_:
                if a_dim_of(acc) != d0 or acc[1][d0][0] != ref[0] or acc[1][d0][3] != ref[3]:
                    # another dimension, outer stride or residual offset
                    raise _NoVec(f"accesses to {sym.name} stride the iterator differently")
            cmin = min(acc[1][d0][2] for acc in accs_)
            for acc in accs_:
                t = acc[1][d0]
                if (t[2] - cmin) + t[1] * (acc[2] - 1) + 1 > ref[0]:
                    # escapes one period: rows would overlap
                    raise _NoVec(f"accesses to {sym.name} overlap between iterations")
            check_rows(sym.name, accs_)

        # register temps: rows are per-iteration private, so only the
        # within-row rule applies
        per_temp: Dict[Sym, List[Tuple]] = {}
        for acc in temp_accesses:
            per_temp.setdefault(acc[0], []).append(acc)
        for sym, accs_ in per_temp.items():
            check_rows(sym.name, accs_)

        self.emit(f"if {hi_t} > {lo_t}:")
        self.indent += 1
        for line in pre + body_lines:
            self.emit(line)
        self.indent -= 1

    @staticmethod
    def _clip_from_cond(cond: N.Expr, iv: Sym) -> Optional[Tuple[str, N.Expr]]:
        """Derive an iteration sub-range from an affine guard condition.

        Returns ``("lt", B)`` when the guard is equivalent to ``iv < B`` or
        ``("ge", B)`` for ``iv >= B`` (``B`` loop-invariant), or ``None`` when
        the condition is not a single affine comparison with unit coefficient.
        This is how masked ``@instr`` bodies (``if base + i < bound: ...``)
        lower to peeled whole-array statements instead of scalar loops.
        """
        if not isinstance(cond, N.BinOp) or cond.op not in ("<", "<=", ">", ">="):
            return None
        dec = decompose(linearize(cond.lhs) - linearize(cond.rhs), iv)
        if dec is None:
            return None
        (k,), rest = dec
        if k not in (1, -1):
            return None
        # k*iv + rest OP 0  ->  iv OP' bound, mirrored when k == -1
        op = cond.op if k == 1 else {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[cond.op]
        bound = rest.scale(-k)
        if op in ("<=", ">"):
            bound = bound + LinearForm.constant(1)  # iv <= B is iv < B + 1
        return ("lt" if op in ("<", "<=") else "ge", linear_to_expr(bound))
