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
* every loop gets **one** fold attempt (``_Lowerer._fold_loop``): the loop
  and every loop nested in it whose bounds the folded loops do not change
  (the chunk, unroll, lane and tail loops inlining leaves) become the axes of
  whole-array NumPy statements, one per assignment or reduction
  (``y[0:n] += alpha * x[0:n]``; an access is a basic slice, or one
  bounds-checked N-D strided view).  Registers allocated in the nest expand
  over the axes around them, reductions sum over the axes their destination
  ignores, and affine ``if`` guards (masked ``@instr`` bodies) lower to
  peeled sub-ranges,
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
as its first argument and the ``par`` worker count as its second.

Semantics parity
----------------
The scalar lowering mirrors the interpreter operation-for-operation (same
NumPy scalar arithmetic, same integer-division rule, same dtype rounding on
scalar allocations); folded elementwise statements are bit-identical to
the sequential loop.  Only reductions over an axis their destination ignores
differ: NumPy's pairwise summation reorders floating-point addition, which
stays well within ``check_equiv`` tolerances (and is usually *more*
accurate).
Inlining is semantics-preserving by construction: tensor parameters are
by-reference views (index composition hits the same elements), scalar
parameters are only substituted when the actual is pure and the callee never
writes them, and window actuals must have provably non-negative bounds and
extents provably covering the callee's declared shape, so no
interpreter-side bounds error is skipped.  Negative buffer
indices raise :class:`InterpError` in both engines; positive out-of-bounds
accesses surface as :class:`InterpError` via NumPy's ``IndexError`` (checked
up front, per region, for a folded nest).  Like Exo's C backend, the engine
assumes distinct buffer arguments do not alias.

Caching
-------
Compiled callables are cached per procedure object, the way the native
backend keys its first tier: the identity of the immutable ``ProcDef`` root
(weakly held, so an entry dies with its root) maps to one
:class:`CompiledProc`.  The ``par`` thread count is a call argument, as
``omp_set_num_threads`` is for a ``.so`` (:mod:`repro.interp.parallel`).
Published roots are never mutated, so an entry never goes stale; one
``@instr`` called from many scheduled kernels compiles once.
:func:`clear_compile_cache` empties the cache.

What lowering asks the prover
-----------------------------
Every question about an index expression goes to :mod:`repro.analysis.linear`,
under the one :class:`FactEnv` the lowerer carries — the root's facts
(``FactEnv.from_proc``: sizes are positive, assertions hold; ``run_proc``
checks the entry procedure's), extended by ``with_loop`` on entering a scalar
loop and dropped again on leaving it.  *Affine* is ``decompose(linearize(e),
*iterators)``: the loop folder's access maps and the guard peeler both
read integer iterator coefficients and an iterator-free rest off it, and two
rests are the same offset when they are equal as linear forms.  *Constant* is
``const_value``, *bounded* the upper end of ``FactEnv.interval`` (a trip
count ``N % 8`` is below 8).  *Never negative* — a bounds guard may be elided, a window
bound needs no call-time check — and *covers* — a window spans at least the
callee's declared shape — are lower bounds from ``FactEnv.interval``.  The
``par`` proof needs no environment: it compares index forms syntactically.
"""

from __future__ import annotations

import math
import threading
import weakref
from fractions import Fraction
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
from .parallel import par_for

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


def _rt_view(arr, starts, shape, steps, buf: str):
    """The bounds-checked strided view of ``arr`` one access of a folded loop
    nest covers: ``view[t] is arr[starts + sum(t[a] * steps[a])]`` over the
    box ``shape`` (one entry per folded axis: its trip count, or 1 for an
    axis the access does not depend on, whose steps are all zero; never 0:
    a nest runs a statement only when its box is not empty).  Steps are
    non-negative, so the box's far corner bounds every index.  Writes through
    the view hit ``arr``; the caller's dependence analysis proved them
    injective before emitting one."""
    s = arr.strides
    last = list(starts)
    strides = []
    for k, step in zip(shape, steps):
        b = 0
        for d, c in enumerate(step):
            if c:
                last[d] += c * (k - 1)
                b += c * s[d]
        strides.append(b)
    off = 0
    for lo, hi, n, b in zip(starts, last, arr.shape, s):
        if lo < 0 or hi >= n:
            _rt_oob(buf, "vector access out of range")
        off += lo * b
    if arr.flags.c_contiguous:
        # the view straight from the constructor: a seventh of the cost of
        # ``as_strided``, which a folded kernel pays per region per call
        return np.ndarray(shape, arr.dtype, arr, off, strides)
    return np.lib.stride_tricks.as_strided(arr[tuple(slice(lo, None) for lo in starts)], shape, strides)


def _rt_cfg_read(state: Dict, key, label: str):
    if key not in state:
        raise InterpError(f"read of configuration field {label} before any write")
    return state[key]


class CompiledProc:
    """A procedure lowered to a Python/NumPy callable.

    ``source`` is the generated Python text (useful for debugging and tested
    directly), ``vector_loops`` counts loops lowered to whole-array NumPy
    statements (each a folded nest), ``inlined_calls`` counts
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

    def run(self, config_state: Dict, argvals: Sequence[object], threads: int) -> None:
        """Execute on ``argvals`` (in parameter order) with ``par`` loops
        dispatched over ``threads`` workers (a count already resolved by
        :func:`~repro.interp.parallel.resolve_num_threads`); configuration
        writes and reads go to ``config_state``, shared with every compiled
        callee."""
        try:
            self.fn(config_state, threads, *argvals)
        except IndexError as exc:
            raise InterpError(f"out-of-bounds access while executing compiled {self.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

# ProcDef root (by identity, weakly held) -> CompiledProc, the shape of the
# native backend's tier 1.  Roots are immutable once built, so identity is an
# exact key, and an entry dies with its root.  Compilation runs outside the
# lock; a thread that lost a compile race adopts the winner's object, so one
# root resolves to one CompiledProc.
_by_root: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def compile_proc(procedure) -> CompiledProc:
    """Compile a :class:`Procedure` (or raw ``ProcDef``) to NumPy, memoised.

    Raises :class:`CompileError` when the lowerer cannot handle some
    statement of the procedure.
    """
    root = getattr(procedure, "_root", procedure)
    hit = _by_root.get(root)
    if hit is not None:
        return hit
    try:
        work, n_inlined = _inline_procedure(root)
        engine = _Lowerer(work).compile()
        engine.inlined_calls = n_inlined
    except CompileError:
        raise
    except Exception as exc:  # a lowering bug: never kill a run
        raise CompileError(f"cannot lower {root.name}: {type(exc).__name__}: {exc}") from exc
    with _lock:
        return _by_root.setdefault(root, engine)


def compiled_source(procedure) -> str:
    """The generated Python source for a procedure (compiles if needed)."""
    return compile_proc(procedure).source


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
        cdef = s.proc._root
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


def _div_op(e: N.BinOp) -> str:
    """Python's operator for the object-language ``/`` of ``e``: floor
    division unless ``e`` is of a float type."""
    return "/" if e.typ.is_float else "//"


class _Lowerer:
    def __init__(self, root: N.ProcDef):
        self.root = root
        self.in_par = False  # inside a par chunk body: nested pars stay serial
        # what is known here: the root's facts plus the enclosing scalar loops'
        # ranges -- asked by guard elision, window checks and the fold
        self.env = FactEnv.from_proc(root)
        self.lines: List[str] = []
        self.indent = 1
        self.consts: List[object] = []
        self.const_ix: Dict[int, int] = {}
        self.bound: Dict[Sym, Tuple[str, str]] = {}  # sym -> (pyname, kind)
        self.window_base: Dict[Sym, Sym] = {}  # window sym -> root base buffer
        self.scalar_cast: Dict[Sym, int] = {}  # alloc'd scalars: const-ix of np type
        self.cells: Set[Sym] = set()
        # buffer sym -> its extents; loop iterator -> the trip count of the
        # par loop whose chunks it runs (the fold's size estimate reads both)
        self.extents: Dict[Sym, List[LinearForm]] = {}
        self.owned: Set[Sym] = set()  # tensors the procedure allocates
        self.par_trip: Dict[Sym, LinearForm] = {}
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
                self.extents[a.name] = [linearize(d) for d in a.typ.shape]
            elif a.typ.is_indexable():
                kind = "index"
            else:
                kind = "scalar"
            params.append(self.bind(a.name, kind))
        self.lower_stmts(root.body)  # every statement emits at least one line
        source = f"def __kernel(__ctx, __nt, {', '.join(params)}):\n" + "\n".join(self.lines)
        ns = {
            "np": np,
            "__K": self.consts,
            "_oob": _rt_oob,
            "_stride": _rt_stride,
            "_view": _rt_view,
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
            self.extents[s.name] = [
                linearize(d.hi) - linearize(d.lo) for d in s.rhs.idx if isinstance(d, N.Interval)
            ]
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
            self.extents[s.name] = [linearize(d) for d in s.typ.shape]
            self.owned.add(s.name)
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
        lo_t, hi_t = self.bound_src(s.lo), self.bound_src(s.hi)
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

    def bound_src(self, e: N.Expr) -> str:
        """A loop bound as a literal, or a temp bound to its value."""
        c = const_value(e)
        if c is not None:
            return str(c)
        t = self.temp()
        self.emit(f"{t} = int({self.expr(e)})")
        return t

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
        cdef = s.proc._root
        callee = compile_proc(cdef)
        args_src = ["__ctx", "__nt"]
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
        for sym, cells in par_write_classes(s).items():
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
        self.par_trip[it] = linearize(s.hi) - linearize(s.lo)
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
            f"{res_t} = _par_for({fn_t}, {lo_t}, {hi_t}, __nt, "
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
        """Fold loop ``s`` — and every loop nested in it — into whole-array
        NumPy statements, or raise ``_NoVec(reason)``.

        After cross-procedure inlining, scheduled kernels are nests of chunk
        loops around vector-register allocations and constant-trip leaf
        loops (``divide_loop`` plus ``@instr`` substitution), with tail loops
        of symbolic trip count (``N / 8 % 2``, ``N % 8``) beside them.  The
        fold makes ``s`` and each loop inside it an *axis*: a loop whose
        bounds no folded loop changes (symbolic, or zero-trip, is fine), at
        any depth, with constant-trip leaf loops as the innermost axes
        (lanes).  Each statement then runs once, over the box of the axes
        that enclose it (:class:`_Fold` has the mechanics):

        * every buffer access is one N-D strided view of its buffer,
          ``_view(buf, starts, shape, steps)``, which checks its own bounds
          (an axis the access ignores has extent 1 and broadcasts);
        * a register allocated at any level — a constant-shape tensor, or a
          scalar — expands over the folded axes that enclose it (allocated
          zeroed once: each cell of those axes is one iteration's private
          register, so per-iteration zero-fill semantics hold);
        * a reduction sums over the axes its destination ignores (``.sum``
          with ``keepdims``); an outer scalar only sum-accumulated becomes
          one ``.sum()``;
        * an ``if`` whose condition is an affine bound on one folded iterator
          (masked ``@instr`` bodies) runs its statements over the peeled
          sub-range of that axis;
        * statements under a loop whose trip count may be zero run only when
          it is not, so a skipped tail touches nothing.

        Safety (:meth:`_Fold.check_dependences`): for every pair of accesses
        to one buffer, one a write, a conflict must imply equal coordinates
        on the axes the two share — then the sequential order of the pair is
        the statement order the fold keeps.  Among others, a written map is
        injective over its box.  ``+=`` into one cell commute, so two
        reductions are exempt.  Size (:meth:`_Fold.check_size`): no box may
        have more elements than the largest buffer the nest touches — the
        trip-count product is compared with the extents factor by factor —
        so an ``i, j, k`` product nest keeps its outer loops in Python.
        """
        _Fold(self, s, lo_t, hi_t).lower()

    @staticmethod
    def _clip_from_cond(cond: N.Expr, iters: Sequence[Sym]) -> Optional[Tuple[int, str, N.Expr]]:
        """Derive an iteration sub-range from an affine guard condition.

        Returns ``(k, "lt", B)`` when the guard is equivalent to
        ``iters[k] < B`` or ``(k, "ge", B)`` for ``iters[k] >= B`` (``B`` free
        of every iterator), or ``None`` when the condition is not a single
        affine comparison with unit coefficient on one iterator.  This is how
        masked ``@instr`` bodies (``if base + i < bound: ...``) lower to
        peeled whole-array statements instead of scalar loops.
        """
        if not isinstance(cond, N.BinOp) or cond.op not in ("<", "<=", ">", ">="):
            return None
        dec = decompose(linearize(cond.lhs) - linearize(cond.rhs), *iters)
        if dec is None:
            return None
        coeffs, rest = dec
        which = [pos for pos, k in enumerate(coeffs) if k]
        if len(which) != 1 or coeffs[which[0]] not in (1, -1):
            return None
        k = coeffs[which[0]]
        # k*iv + rest OP 0  ->  iv OP' bound, mirrored when k == -1
        op = cond.op if k == 1 else {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[cond.op]
        bound = rest.scale(-k)
        if op in ("<=", ">"):
            bound = bound + LinearForm.constant(1)  # iv <= B is iv < B + 1
        return which[0], ("lt" if op in ("<", "<=") else "ge"), linear_to_expr(bound)


# ---------------------------------------------------------------------------
# The nest fold
# ---------------------------------------------------------------------------


class _Axis:
    """One loop of a folded nest.  ``lo``, ``hi`` and ``n`` (the trip count)
    are Python sources bound before the nest runs; ``base`` is ``lo`` as a
    linear form, ``trip`` the trip count the size estimate reads and ``ub``
    an upper bound on it (``None``: unbounded)."""

    __slots__ = ("iter", "lo", "hi", "n", "base", "trip", "ub")

    def __init__(self, it: Sym, lo: str, hi: str, n: str, base: LinearForm, trip: LinearForm, ub: Optional[int]):
        self.iter, self.lo, self.hi, self.n = it, lo, hi, n
        self.base, self.trip, self.ub = base, trip, ub


class _Acc:
    """One buffer or register access of a folded nest, for the dependence
    check: per dimension, the index is ``const + resid + sum(coef[a] * t_a)``
    over the axes ``a`` of ``path`` (``t_a`` counts from the axis' start)."""

    __slots__ = ("sym", "path", "dims", "write", "reduce")

    def __init__(self, sym: Sym, path: Tuple[int, ...], dims: Tuple, write: bool, reduce: bool):
        self.sym, self.path, self.dims, self.write, self.reduce = sym, path, dims, write, reduce


class _Block:
    """Generated lines of a folded nest, some under a condition (a loop
    whose trip count may be zero, a guard's peeled range).  ``views`` binds
    each access region once per block, visible to the blocks inside.  A
    block without a head holds one statement's lines in place, its views
    its parent's."""

    __slots__ = ("head", "items", "views", "parent")

    def __init__(self, head: Optional[str], parent: Optional["_Block"]):
        self.head, self.parent = head, parent
        self.items: List[object] = []
        self.views: Dict[Tuple, Tuple[str, Set[int]]] = {} if head or parent is None else parent.views

    def child(self, head: Optional[str]) -> "_Block":
        b = _Block(head, self)
        self.items.append(b)
        return b

    def view(self, key: Tuple) -> Optional[Tuple[str, Set[int]]]:
        b: Optional[_Block] = self
        while b is not None:
            if key in b.views:
                return b.views[key]
            b = b.parent
        return None

    def render(self, low: "_Lowerer") -> None:
        for item in self.items:
            if isinstance(item, str):
                low.emit(item)
            elif item.head is None:
                item.render(low)
            elif item.items:
                low.emit(item.head)
                low.indent += 1
                item.render(low)
                low.indent -= 1


def _factor(env: FactEnv, lf: LinearForm) -> Tuple[Optional[LinearForm], Fraction]:
    """``lf`` (a trip count or an extent, never negative) as ``scale * core``:
    ``core`` ``None`` when ``lf`` is bounded by the constant ``scale``, and
    ``N / 8 / 2`` is ``N`` at scale 1/16.  The size estimate compares
    cores, so only the scales need arithmetic."""
    c = lf.constant_value()
    if c is not None:
        return None, Fraction(max(c, 0))
    _lo, hi = env.interval(lf)
    if hi is not None:
        return None, Fraction(max(hi, 0))
    if lf.constant_term() < 0:  # `n / 4 - 1` is at most `n / 4`
        lf = lf - LinearForm.constant(lf.constant_term())
    if len(lf.terms) == 1:
        ((key, coeff),) = lf.terms.items()
        if coeff > 0 and len(key) == 1 and not isinstance(key[0], Sym):
            e = key[0].expr
            d = const_value(e.rhs) if isinstance(e, N.BinOp) and e.op == "/" else None
            if d:
                core, scale = _factor(env, linearize(e.lhs))
                return core, scale * coeff / d
    g = 0
    for coeff in lf.terms.values():
        g = math.gcd(g, coeff)
    return LinearForm({k: v // g for k, v in lf.terms.items()}), Fraction(g)


def _fits(env: FactEnv, trips: Sequence[Tuple[Optional[LinearForm], Fraction]], extents) -> bool:
    """Does a box of these trip counts have no more elements than a buffer
    of these extents?  Each symbolic trip count takes an extent of the same
    core (or a provably larger one); the constant factors that remain must
    multiply to at most 1, unless an extent no trip count took is symbolic —
    a size that large absorbs any constant."""
    ratio, free = Fraction(1), list(extents)
    for core, scale in trips:
        if core is None:
            ratio *= scale
            continue
        for j, (ecore, escale) in enumerate(free):
            if ecore is not None and (ecore == core or _never_negative(env, ecore - core)):
                ratio *= scale / escale
                del free[j]
                break
        else:
            return False
    if any(ecore is not None for ecore, _ in free):
        return True
    return ratio <= math.prod(escale for _ecore, escale in free)


class _Fold:
    """One attempt to fold the loop nest of ``s`` (see
    :meth:`_Lowerer._fold_loop`).  Lowering fills a tree of
    :class:`_Block` and records every access; :meth:`lower` emits the nest
    only once the dependence and size checks pass."""

    def __init__(self, low: _Lowerer, s: N.For, lo_t: str, hi_t: str):
        self.low, self.s, self.lo_t, self.hi_t = low, s, lo_t, hi_t
        nodes = [n for st in s.body for n, _ in walk(st)]
        self.written = {n.name for n in nodes if isinstance(n, (N.Assign, N.Reduce))}
        self.assigned = {n.name for n in nodes if isinstance(n, N.Assign)}
        self.allocated = {n.name for n in nodes if isinstance(n, N.Alloc)}
        # in program order: the size check asks the prover in this order
        self.reads = dict.fromkeys(n.name for n in nodes if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)))
        self.axes: List[_Axis] = []
        self.iters: Set[Sym] = set()
        # register -> (pyname, the axes it expands over, its own shape); an
        # allocation rebinding a symbol replaces the dict, so each statement
        # keeps the registers in scope where it stands
        self.regs: Dict[Sym, Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = {}
        self.accs: Set[Sym] = set()  # outer scalars the nest only sum-accumulates
        self.accesses: List[_Acc] = []
        # (axes, constant factor) of every statement and register: the boxes
        # the size check bounds
        self.boxes: Set[Tuple[Tuple[int, ...], int]] = set()
        self.n_regs = 0
        self.pre: List[str] = []
        self.hoists: Dict[str, str] = {}
        self.top = _Block(None, None)
        # the statements, each with its box, the block its lines go in and
        # the registers in scope
        self.stmts: List[Tuple[N.Stmt, Tuple, _Block, Dict]] = []

    # -- set-up -------------------------------------------------------------------

    def hoisted(self, src: str) -> str:
        """A temp bound once, ahead of the nest, to loop-invariant ``src``
        (bounds, trip counts, index offsets, iotas)."""
        if src.isidentifier() or src.isdigit():
            return src
        t = self.hoists.get(src)
        if t is None:
            t = self.hoists[src] = self.low.temp()
            self.pre.append(f"{t} = {src}")
        return t

    def add_axis(self, it: Sym, lo_e: N.Expr, lo: str, hi: str, n: str, trip: LinearForm) -> int:
        c = trip.constant_value()
        ub = c if c is not None else self.low.env.interval(trip)[1]
        self.axes.append(_Axis(it, lo, hi, n, linearize(lo_e), trip, ub))
        self.iters.add(it)
        return len(self.axes) - 1

    def invariant(self, e: N.Expr, what: str) -> None:
        """``e`` (an index offset, loop bound or guard bound) must not change
        while the nest runs, and must lower without emitting guards."""
        syms = used_syms_expr(e)
        if syms & self.written or syms & self.allocated or syms & self.iters:
            raise _NoVec(f"{what} varies inside the loop")
        for n, _ in walk(e):
            if isinstance(n, N.Read) and n.idx or isinstance(n, N.WindowExpr):
                raise _NoVec(f"{what} is read from a buffer")

    def lower(self) -> None:
        """The nest's shape first (axes, registers, blocks) and its size
        check, then each statement and the dependence check."""
        low, s = self.low, self.s
        for sym in self.written - self.allocated:
            # a scalar bound before the loop may only be sum-accumulated
            if low.bound[sym][1] in ("scalar", "index"):
                if sym in self.reads or sym in self.assigned:
                    raise _NoVec(f"scalar {sym.name} carries a value between iterations")
                self.accs.add(sym)
        trip = low.par_trip.get(s.iter, linearize(s.hi) - linearize(s.lo))
        lo_c, hi_c = const_value(s.lo), const_value(s.hi)
        if lo_c is not None and hi_c is not None:
            # constant bounds stay literals, so bounds checks can be decided here
            ax = self.add_axis(s.iter, s.lo, str(lo_c), str(hi_c), str(max(hi_c - lo_c, 0)), trip)
        else:
            n = self.hi_t if self.lo_t == "0" else self.hoisted(f"{self.hi_t} - {self.lo_t}")
            ax = self.add_axis(s.iter, s.lo, self.lo_t, self.hi_t, n, trip)
        self.body(s.body, (ax,), self.top)
        if not self.stmts:
            raise _NoVec("empty loop body")
        self.check_size()
        for st, box, block, self.regs in self.stmts:
            self.stmt(st, box, block)
        self.check_dependences()
        guarded = self.axes[0].n == "0" or not self.axes[0].n.isdigit()
        if guarded:
            low.emit(f"if {self.hi_t} > {self.lo_t}:")
            low.indent += 1
        for line in self.pre:
            low.emit(line)
        self.top.render(low)
        low.indent -= guarded

    # -- the nest, statement by statement ---------------------------------------

    def body(self, stmts: Sequence[N.Stmt], path: Tuple[int, ...], block: _Block) -> None:
        for st in stmts:
            if isinstance(st, N.Pass):
                continue
            if isinstance(st, N.Alloc):
                self.alloc(st, path, block)
            elif isinstance(st, N.For):
                self.loop(st, path, block)
            elif isinstance(st, (N.Assign, N.Reduce)):
                self.add_stmt(st, (path, None), block.child(None))
            elif isinstance(st, N.If) and not st.orelse:
                clip = self.clip(st.cond, path)
                for inner in st.body:
                    if isinstance(inner, N.Pass):
                        continue
                    if not isinstance(inner, (N.Assign, N.Reduce)):
                        raise _NoVec(f"{type(inner).__name__} under a guard")
                    self.add_stmt(inner, (path, clip), block.child(f"if {clip[3]} > 0:"))
            else:
                raise _NoVec(f"{type(st).__name__} in loop body")

    def add_stmt(self, st, box, block: _Block) -> None:
        """Queue a statement for lowering once the nest's shape is known.
        An index that is not affine, or an assignment that some iterations
        of the box repeat, declines the fold here already."""
        path = box[0]
        iters = [self.axes[a].iter for a in path]
        for n, _ in walk(st):
            if isinstance(n, (N.Assign, N.Reduce, N.Read)):
                for e in n.idx:
                    if decompose(linearize(e), *iters) is None:
                        raise _NoVec("index is not affine in the loop iterators")
        reg = self.regs.get(st.name)
        whole = reg[2] if reg is not None else self.low.bound[st.name][1] == "tensor"
        if not st.idx and whole:
            raise _NoVec(f"whole-{'register' if reg is not None else 'buffer'} write of {st.name.name}")
        if isinstance(st, N.Assign):
            used = set(reg[1]) if reg is not None else set()
            for e in st.idx:
                used |= {a for a, c in zip(path, decompose(linearize(e), *iters)[0]) if c}
            if path[0] not in used:
                raise _NoVec(f"{st.name.name} is written at an iterator-invariant index")
            if not used >= set(path):
                raise _NoVec(f"every lane writes the same element of {st.name.name}")
        self.stmts.append((st, box, block, self.regs))

    def alloc(self, st: N.Alloc, path: Tuple[int, ...], block: _Block) -> None:
        low = self.low
        if st.name in low.cells:
            raise _NoVec(f"{st.name.name} is windowed or passed by reference")
        if isinstance(st.typ, TensorType):
            shape = tuple(const_value(d) for d in st.typ.shape)
            if any(w is None or w < 1 for w in shape):
                raise _NoVec(f"{st.name.name} is not a constant-shape register")
            dt = np_dtype_for(st.typ).type
        else:
            # an index, size or bool scalar holds an integer, as stmt_alloc's
            shape, dt = (), (np_dtype_for(st.typ).type if st.typ.is_numeric else np.int64)
        self.n_regs += 1
        name = f"__w{self.n_regs}"
        self.regs = {**self.regs, st.name: (name, path, shape)}
        self.boxes.add((path, math.prod(shape)))
        dims = "".join(f"{d}, " for d in [self.axes[a].n for a in path] + list(shape))
        block.items.append(f"{name} = np.zeros(({dims}), dtype=__K[{low.const(dt)}])")

    def loop(self, st: N.For, path: Tuple[int, ...], block: _Block) -> None:
        if st.iter in self.iters:
            raise _NoVec("inner loop rebinds the iterator")
        for e in (st.lo, st.hi):
            self.invariant(e, f"bound of loop {st.iter.name}")
        trip = linearize(st.hi) - linearize(st.lo)
        lo_c, hi_c = const_value(st.lo), const_value(st.hi)
        if lo_c is not None and hi_c is not None:
            if hi_c <= lo_c:
                return  # never runs
            ax = self.add_axis(st.iter, st.lo, str(lo_c), str(hi_c), str(hi_c - lo_c), trip)
        else:
            lo = str(lo_c) if lo_c is not None else self.hoisted(f"int({self.low.expr(st.lo)})")
            hi = str(hi_c) if hi_c is not None else self.hoisted(f"int({self.low.expr(st.hi)})")
            ax = self.add_axis(st.iter, st.lo, lo, hi, self.hoisted(f"max({hi} - {lo}, 0)"), trip)
            t_lo, _ = self.low.env.interval(trip)
            if t_lo is None or t_lo < 1:
                block = block.child(f"if {self.axes[ax].n}:")
        self.body(st.body, path + (ax,), block)

    def clip(self, cond: N.Expr, path: Tuple[int, ...]) -> Tuple[int, str, str, str]:
        """(axis, lo, hi, trip count) of the peeled range of an affine guard."""
        found = _Lowerer._clip_from_cond(cond, [self.axes[a].iter for a in path])
        if found is None:
            raise _NoVec("guard is not an affine bound on the iterator")
        pos, kind, bound = found
        self.invariant(bound, "guard bound")
        ax = self.axes[path[pos]]
        b = self.hoisted(f"int({self.low.expr(bound)})")
        if kind == "lt":
            lo, hi = ax.lo, self.hoisted(f"min({ax.hi}, {b})")
        else:
            lo, hi = self.hoisted(f"max({ax.lo}, {b})"), ax.hi
        return path[pos], lo, hi, self.hoisted(f"{hi} - {lo}")

    def rng(self, box, a: int) -> Tuple[str, str, str]:
        """(lo, hi, trip count) of axis ``a`` in a statement's box."""
        clip = box[1]
        if clip is not None and clip[0] == a:
            return clip[1], clip[2], clip[3]
        ax = self.axes[a]
        return ax.lo, ax.hi, ax.n

    def shape(self, box) -> str:
        return "(" + "".join(f"{self.rng(box, a)[2]}, " for a in box[0]) + ")"

    def stmt(self, st, box, block: _Block) -> None:
        low = self.low
        path = box[0]
        aug, tgt = isinstance(st, N.Reduce), st.name
        rhs, rused = self.value(st.rhs, box, block)
        if tgt in self.accs:
            # an outer scalar: the whole box sums into it
            name = low.bound[tgt][0]
            total = f"{name} + {self.summed(rhs, rused, box)}.sum()"
            cast = low.scalar_cast.get(tgt)
            if cast is not None:
                # mirror the interpreter's dtype rounding on scalar allocations
                total = f"__K[{cast}]({total})"
            block.items.append(f"{name} = {total}")
            return
        view, used = self.region(tgt, st.idx, box, block, write=True, reduce=aug)
        ignored = [pos for pos in range(len(path)) if pos not in used]
        if not ignored:  # every assignment (add_stmt saw to it)
            block.items.append(f"{view} += {rhs}" if aug else f"{view}[...] = {rhs}")
        else:
            axis = ignored[0] if len(ignored) == 1 else tuple(ignored)
            block.items.append(
                f"{view} += {self.summed(rhs, rused, box)}.sum(axis={axis}, keepdims=True, dtype={view}.dtype)"
            )

    def summed(self, rhs: str, rused: Set[int], box) -> str:
        """``rhs`` with an extent on every axis of its box (``rused``: the
        positions it has one on): a value a loop does not change is added
        once per iteration of it."""
        if len(rused) == len(box[0]):
            return f"({rhs})"
        return f"np.broadcast_to({rhs}, {self.shape(box)})"

    def region(self, sym: Sym, idx: Sequence[N.Expr], box, block: _Block, write=False, reduce=False):
        """(view source, positions in the box of the axes it varies along)
        of an access; records it for the dependence check and binds the view
        in ``block`` on first use (statements of sibling loops share it)."""
        low = self.low
        path, clip = box
        iters = [self.axes[a].iter for a in path]
        dims: List[Tuple[Dict[int, int], int, LinearForm]] = []
        starts: List[str] = []
        steps: List[Tuple[int, ...]] = []  # per dimension, per axis
        fixed: List[Optional[int]] = []  # per dimension, the start if it is a constant
        reg = self.regs.get(sym)
        if reg is not None:
            name, rpath, _shape = reg
            # a register's leading dimensions are the axes it expands over
            for a in rpath:
                peel = clip is not None and clip[0] == a
                starts.append(self.hoisted(f"{clip[1]} - {self.axes[a].lo}") if peel else "0")
                fixed.append(None if peel else 0)
                steps.append(tuple(int(b == a) for b in path))
                dims.append(({a: 1}, 0, LinearForm()))
        else:
            name = low.bound[sym][0]  # a buffer, or a cell: a 0-d array
        for e in idx:
            coeffs, rest = decompose(linearize(e), *iters)  # affine: add_stmt checked
            if any(c < 0 for c in coeffs):
                raise _NoVec("negative stride")
            rest_e = linear_to_expr(rest)
            self.invariant(rest_e, "index offset")
            start = [] if rest.is_zero() else [self.hoisted(low.expr(rest_e))]
            base, const = rest, rest.constant_value()
            for c, a in zip(coeffs, path):
                if c:
                    base = base + self.axes[a].base.scale(c)
                    lo = self.rng(box, a)[0]
                    const = const + c * int(lo) if const is not None and lo.isdigit() else None
                    if lo != "0":
                        start.append(lo if c == 1 else f"{c} * {lo}")
            starts.append(" + ".join(start) or "0")
            fixed.append(const)
            steps.append(coeffs)
            c0 = base.constant_term()
            dims.append(({a: c for c, a in zip(coeffs, path) if c}, c0, base - LinearForm.constant(c0)))
        self.accesses.append(_Acc(sym, path, tuple(dims), write, reduce))
        used = {pos for pos, a in enumerate(path) if any(a in d[0] for d in dims)}
        shape = tuple(self.rng(box, a)[2] if pos in used else "1" for pos, a in enumerate(path))
        by_axis = tuple(tuple(st[pos] for st in steps) for pos in range(len(path)))
        key = (sym, tuple(starts), shape, by_axis)
        hit = block.view(key)
        if hit is not None:
            return hit
        src = self.low.temp()
        sliced = self.basic(sym, name, reg, starts, fixed, steps, dims, box)
        if sliced is not None:
            parts, conds, whole = sliced
            if conds:
                block.items += [f"if {' or '.join(conds)}:", f"    _oob({sym.name!r}, 'vector access out of range')"]
            if whole:
                src = name  # all of it, in its own layout: no view to make
            else:
                block.items.append(f"{src} = {name}[{', '.join(parts)}]")
        else:
            tup = lambda xs: "(" + "".join(f"{x}, " for x in xs) + ")"  # noqa: E731
            block.items.append(
                f"{src} = _view({name}, {tup(starts)}, {tup(shape)}, {tup(tup(s) for s in by_axis)}, {sym.name!r})"
            )
        block.views[key] = (src, used)
        return src, used

    def basic(self, sym: Sym, name: str, reg, starts, fixed, steps, dims, box):
        """The basic-slicing index of an access whose every dimension is a
        point or one axis, the axes in box order — a plain NumPy view, ten
        times cheaper to make than ``_view`` — with the conditions under
        which it leaves the buffer and whether it is all of it.  A register's
        access must stay inside provably (constant starts and trip counts),
        so it needs no condition.  ``None`` when the access needs ``_view``."""
        path = box[0]
        if reg is not None:
            _name, rpath, rshape = reg
            known: List[Optional[int]] = [None] * len(rpath) + list(rshape)
        else:
            # a parameter may be bound to a shorter window than it declares:
            # only an allocation's extents are known here
            rpath = ()
            owned = sym in self.low.owned
            known = [e.constant_value() if owned else None for e in self.low.extents.get(sym, ())]
        parts: List[str] = []
        conds: List[str] = []
        whole, nxt = True, 0
        for d, (start, c0, coeffs) in enumerate(zip(starts, fixed, steps)):
            on = [pos for pos, k in enumerate(coeffs) if k]
            if len(on) > 1 or on and on[0] < nxt:
                return None
            k = coeffs[on[0]] if on else 0
            n = self.rng(box, path[on[0]])[2] if on else "1"
            if d < len(rpath):  # the register's own row of its axes
                part = ":" if c0 == 0 else f"{start}:{start} + {n}"
                whole = whole and c0 == 0
            else:
                last = c0 + k * (int(n) - 1) if c0 is not None and n.isdigit() else None
                inside = last is not None and known[d] is not None and 0 <= c0 and last < known[d]
                if not inside:
                    if reg is not None:
                        return None
                    if not _never_negative(self.low.env, dims[d][2] + LinearForm.constant(dims[d][1])):
                        conds.append(f"{start} < 0")
                if not on:
                    parts.append(str(c0) if inside else start)
                    whole = False
                    continue
                if last is not None:
                    start, stop = str(c0), str(last + 1)
                    whole = whole and inside and c0 == 0 and k == 1 and last + 1 == known[d]
                else:
                    span = n if k == 1 else f"{k} * ({n} - 1) + 1"
                    stop = span if start == "0" else f"{start} + {span}"
                    whole = False
                if not inside:
                    conds.append(f"{stop} > {name}.shape[{d}]")
                part = f"{start}:{stop}"
            whole = whole and on[0] == nxt
            parts += ["None"] * (on[0] - nxt) + [part + (f":{k}" if k != 1 else "")]
            nxt = on[0] + 1
        return parts + ["None"] * (len(path) - nxt), conds, whole and nxt == len(path)

    def value(self, e: N.Expr, box, block: _Block) -> Tuple[str, Set[int]]:
        """Lower an expression to (source, positions in the box of the axes
        it varies along).  Every array has one dimension per axis of the
        box, so NumPy broadcasting is the loop nest's semantics."""
        low = self.low
        path = box[0]
        if isinstance(e, N.Const):
            if isinstance(e.val, bool):
                return ("True" if e.val else "False", set())
            return (repr(e.val), set())
        if isinstance(e, N.Read):
            sym = e.name
            for pos, a in enumerate(path):
                if self.axes[a].iter is sym:
                    lo, hi, _n = self.rng(box, a)
                    shape = ", ".join("-1" if p == pos else "1" for p in range(len(path)))
                    return (self.hoisted(f"np.arange({lo}, {hi}).reshape({shape})"), {pos})
            if sym in self.regs:
                if not e.idx and self.regs[sym][2]:
                    raise _NoVec(f"whole-register read of {sym.name}")
                return self.region(sym, e.idx, box, block)
            name, kind = low.bound[sym]  # bound before the loop, like every other read
            if kind in ("scalar", "index"):
                return (name, set())
            if kind == "tensor" and not e.idx:
                raise _NoVec(f"whole-buffer read of {sym.name}")
            return self.region(sym, e.idx, box, block)
        if isinstance(e, N.BinOp):
            if e.op in ("and", "or"):
                raise _NoVec(f"boolean {e.op!r} has no whole-array form")
            lhs, lu = self.value(e.lhs, box, block)
            rhs, ru = self.value(e.rhs, box, block)
            op = _div_op(e) if e.op == "/" else e.op
            return (f"({lhs} {op} {rhs})", lu | ru)
        if isinstance(e, N.USub):
            src, used = self.value(e.arg, box, block)
            return (f"(-{src})", used)
        if isinstance(e, N.Extern):
            subs = [self.value(a, box, block) for a in e.args]
            defn = extern_by_name(e.fname)
            used = set().union(*(u for _src, u in subs))
            if not used:
                return (f"__K[{low.const(defn.impl)}]({', '.join(src for src, _u in subs)})", used)
            # the registry's whole-array template (np_template); an extern
            # registered without one blocks the fold
            rendered = defn.np_apply([src for src, _u in subs])
            if rendered is None:
                raise _NoVec(f"extern {e.fname} has no whole-array template")
            return (rendered, used)
        raise _NoVec(f"{type(e).__name__} expression")

    # -- checks -------------------------------------------------------------------

    def undetermined(self, x: _Acc, y: _Acc, shared: Sequence[int]) -> Set[int]:
        """The axes of ``shared`` on which a conflict of ``x`` and ``y`` (one
        cell, two iterations) is not proven to agree; empty when every
        conflict is within one iteration of them, or none can happen.

        Per dimension whose residual offsets match and whose coefficients
        agree on the shared axes: the local parts (constant offset plus the
        axes only one access has) span a known range, and the shared axes
        still open are a mixed radix above it — each coefficient exceeds
        the reach of the smaller ones, so equal indices force equal
        coordinates.  With no shared axis open, disjoint ranges rule the
        conflict out.  Each dimension may close axes another needs."""
        axes = self.axes

        def local(acc: _Acc, dim) -> Optional[Tuple[int, int]]:
            coef, c0, _resid = dim
            hi = c0
            for a, k in coef.items():
                if a not in shared:
                    if axes[a].ub is None:
                        return None
                    hi += k * max(axes[a].ub - 1, 0)
            return c0, hi

        todo = set(shared)
        progress = True
        while todo and progress:
            progress = False
            for tx, ty in zip(x.dims, y.dims):
                if tx[2] != ty[2] or any(tx[0].get(a, 0) != ty[0].get(a, 0) for a in shared):
                    continue
                rx, ry = local(x, tx), local(y, ty)
                if rx is None or ry is None:
                    continue
                radix = sorted((tx[0][a], a) for a in todo if tx[0].get(a))
                if not radix:
                    if rx[1] < ry[0] or ry[1] < rx[0]:
                        return set()
                    continue
                reach = max(rx[1], ry[1]) - min(rx[0], ry[0])
                for i, (k, a) in enumerate(radix):
                    if k <= reach or (i + 1 < len(radix) and axes[a].ub is None):
                        break
                    if i + 1 < len(radix):
                        reach += k * max(axes[a].ub - 1, 0)
                else:
                    todo -= {a for _k, a in radix}
                    progress = True
        return todo

    def check_dependences(self) -> None:
        # windows alias their base buffer: if any buffer in an alias group is
        # written while the group is accessed under more than one name, the
        # per-symbol analysis below would miss the dependence
        per_base: Dict[Sym, Tuple[Set[Sym], List[bool]]] = {}
        for acc in self.accesses:
            if acc.sym in self.regs:
                continue
            syms, writes = per_base.setdefault(self.low.window_base.get(acc.sym, acc.sym), (set(), []))
            syms.add(acc.sym)
            writes.append(acc.write)
        for syms, writes in per_base.values():
            if len(syms) > 1 and any(writes):
                raise _NoVec("a written buffer is also accessed through a window alias")
        per_sym: Dict[Sym, Dict[Tuple, _Acc]] = {}
        for acc in self.accesses:
            # sibling statements repeat an access: one of each is enough
            dims = tuple((tuple(sorted(coef.items())), c0, resid) for coef, c0, resid in acc.dims)
            per_sym.setdefault(acc.sym, {})[(acc.path, dims, acc.write, acc.reduce)] = acc
        for sym, unique in per_sym.items():
            accs = list(unique.values())
            if not any(a.write for a in accs):
                continue
            for i, x in enumerate(accs):
                for y in accs[i:]:
                    if not (x.write or y.write):
                        continue
                    if x is y:
                        # a reduction is one per cell of the axes it indexes
                        shared = [a for a in x.path if any(a in d[0] for d in x.dims)] if x.reduce else x.path
                    elif x.reduce and y.reduce:
                        continue  # `+=` into one cell commute
                    else:
                        shared = []
                        for a, b in zip(x.path, y.path):
                            if a != b:
                                break
                            shared.append(a)
                    left = self.undetermined(x, y, shared)
                    if left:
                        when = "between iterations" if 0 in left else "within an iteration"
                        raise _NoVec(f"accesses to {sym.name} overlap {when}")

    def check_size(self) -> None:
        """No box may hold more elements than the largest buffer the nest
        touches: a fold that would materialise more stays a loop.  A box of
        one symbolic trip count times constant lanes — a row — always may."""
        env, extents = self.low.env, self.low.extents
        factors = [_factor(env, ax.trip) for ax in self.axes]
        operands = None
        for path, k in self.boxes | {(st[1][0], 1) for st in self.stmts}:
            trips = [factors[a] for a in path] + [(None, Fraction(k))]
            if sum(core is not None for core, _scale in trips) <= 1:
                continue
            if operands is None:
                touched = dict.fromkeys([st[0].name for st in self.stmts] + list(self.reads))
                operands = [[_factor(env, lf) for lf in extents[sym]] for sym in touched if sym in extents and sym not in self.allocated]
            if not any(_fits(env, trips, ext) for ext in operands):
                raise _NoVec("iteration space is larger than the nest's operands")
