"""Lowering plumbing shared by the execution backends.

Two backends lower the same object IR to executable form: the C code
generator (:mod:`repro.backend.codegen`) and the NumPy compiled execution
engine (:mod:`repro.interp.compile`).  What they share lives here and is
purely structural: the execution dtypes, row-major stride rendering (through
a ``render`` callback, so the same helper serves C and Python source), and
call-site substitution -- the core of ``inline`` and of both engines'
cross-procedure inliners.

What does *not* live here is any reasoning about index expressions.  Whether
an access is affine in a loop iterator, whether an expression is a constant,
whether an offset can go negative or a window covers a shape are questions
for :mod:`repro.analysis.linear` (``linearize`` / ``decompose`` /
``const_value`` / ``FactEnv.interval``), asked under the one ``FactEnv`` the
lowerer keeps for its position in the loop nest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir import nodes as N
from ..ir.build import map_exprs, map_stmts, used_syms_expr, with_fields
from ..ir.printing import expr_str
from ..ir.syms import Sym
from ..ir.types import TensorType, index_t

__all__ = [
    "NP_DTYPES",
    "np_dtype_for",
    "row_major_strides",
    "InlineError",
    "window_dims",
    "compose_window_index",
    "by_value_refusal",
    "substitute_call_body",
]


# NumPy element types used to *execute* object-code buffers.  Narrow integer
# types are interpreted widely (quantisation is handled by externs) and f16 at
# f32 precision, exactly as the reference interpreter documents.
NP_DTYPES = {
    "f16": np.float32,
    "f32": np.float32,
    "f64": np.float64,
    "i8": np.int32,
    "i16": np.int32,
    "i32": np.int32,
}


def np_dtype_for(typ) -> np.dtype:
    """The NumPy dtype backing an object-language scalar or tensor type."""
    base = typ.basetype() if isinstance(typ, TensorType) else typ
    return np.dtype(NP_DTYPES.get(base.name, np.float64))


def row_major_strides(shape: Sequence[N.Expr], render: Callable[[N.Expr], str]) -> List[str]:
    """Render the row-major strides of a dense tensor shape.

    The innermost dimension has stride ``"1"``; outer dimensions multiply the
    rendered extents of everything to their right.
    """
    out: List[str] = []
    for d in range(len(shape)):
        rest = shape[d + 1 :]
        if not rest:
            out.append("1")
        else:
            out.append(" * ".join(f"({render(e)})" for e in rest))
    return out


# ---------------------------------------------------------------------------
# Call-site substitution (the core of ``inline`` and the compiled engine's
# cross-procedure inliner)
# ---------------------------------------------------------------------------


class InlineError(Exception):
    """A call site cannot be inlined (unsupported argument shape)."""


def window_dims(w: N.WindowExpr) -> List[Tuple[str, N.Expr, Optional[N.Expr]]]:
    """Flatten a window expression's dimensions to ``(kind, lo/pt, hi)``."""
    out = []
    for d in w.idx:
        if isinstance(d, N.Interval):
            out.append(("interval", d.lo, d.hi))
        else:
            out.append(("point", d.pt, None))
    return out


def compose_window_index(wdims, inner_idx: Sequence[N.Expr]) -> List[N.Expr]:
    """Compose a caller window with an index list used inside the callee.

    Point dimensions of the window are inserted verbatim; interval dimensions
    consume one callee index and add the interval's lower bound (the affine
    composition ``base[lo + i]`` that keeps inlined accesses affine for
    :func:`repro.analysis.linear.decompose`).
    """
    out: List[N.Expr] = []
    k = 0
    for kind, lo, _hi in wdims:
        if kind == "point":
            out.append(lo)
        else:
            out.append(N.BinOp("+", lo, inner_idx[k], index_t))
            k += 1
    return out


def _pure_scalar_actual(e: N.Expr) -> bool:
    """May a scalar actual be substituted textually into the callee body?

    Substitution re-evaluates the expression at every read site, so it must
    be pure and cheap: constants, (possibly indexed) reads, and arithmetic
    over them.  (Externs and config reads keep the call path instead.)
    """
    if isinstance(e, N.Const):
        return True
    if isinstance(e, N.Read):
        return all(_pure_scalar_actual(i) for i in e.idx)
    if isinstance(e, N.BinOp):
        return _pure_scalar_actual(e.lhs) and _pure_scalar_actual(e.rhs)
    if isinstance(e, N.USub):
        return _pure_scalar_actual(e.arg)
    if isinstance(e, N.StrideExpr):
        return True
    return False


def by_value_refusal(
    params: Sequence[N.FnArg], actuals: Sequence[N.Expr], aliases: Mapping[Sym, Sym]
) -> Optional[str]:
    """Why substituting a call's actuals into its callee's body would change
    what the call computes, or ``None`` when it would not.

    A call evaluates each scalar actual, and each window actual's bounds,
    once; :func:`substitute_call_body` re-evaluates them at every use.  So a
    scalar actual must be pure and cheap, and neither it nor a window bound
    may read a buffer the call may write — conservatively the base buffer of
    any tensor actual (a callee also writes through its own calls), seen
    through window aliases (``aliases`` maps a window's name to its base
    buffer).  ``inline`` refuses by this rule and the NumPy engine's inliner
    declines by it.
    """

    def base(sym: Sym) -> Sym:
        return aliases.get(sym, sym)

    writable = {
        base(a.name)
        for p, a in zip(params, actuals)
        if isinstance(p.typ, TensorType) and isinstance(a, (N.Read, N.WindowExpr))
    }
    for p, a in zip(params, actuals):
        if not isinstance(p.typ, TensorType):
            if not _pure_scalar_actual(a):
                return f"the argument {expr_str(a)} is not a pure expression"
            reads = [a]
        elif isinstance(a, N.WindowExpr):
            reads = [e for d in a.idx for e in ((d.lo, d.hi) if isinstance(d, N.Interval) else (d.pt,))]
        else:
            continue
        for e in reads:
            hit = sorted(str(base(sym)) for sym in used_syms_expr(e) if base(sym) in writable)
            if hit:
                return f"{expr_str(e)} reads {hit[0]}, which the call may write"
    return None


def substitute_call_body(
    params: Sequence[N.FnArg],
    actuals: Sequence[N.Expr],
    body: Sequence[N.Stmt],
) -> List[N.Stmt]:
    """Substitute call actuals into an (already alpha-renamed) callee body.

    Tensor parameters must be bound to whole-buffer reads or window
    expressions (accesses are rewritten onto the base buffer with composed
    indices); scalar parameters are substituted by their actual expressions.
    Raises :class:`InlineError` for a callee that writes a scalar parameter.
    The parser gives each access and window its buffer's rank, and each call
    actual its parameter's, so the composed indices always line up.
    """
    scalar_env: Dict[Sym, N.Expr] = {}
    buffer_env: Dict[Sym, Tuple[Sym, Optional[list]]] = {}
    for fn_arg, actual in zip(params, actuals):
        if isinstance(fn_arg.typ, TensorType):
            if isinstance(actual, N.WindowExpr):
                buffer_env[fn_arg.name] = (actual.name, window_dims(actual))
            else:  # a whole buffer: the parser passes nothing else to a tensor
                buffer_env[fn_arg.name] = (actual.name, None)
        else:
            scalar_env[fn_arg.name] = actual

    def interval_index(wdims, dim: int) -> int:
        """Map a callee dimension to the base-buffer dimension it views."""
        return [d for d, (kind, _lo, _hi) in enumerate(wdims) if kind == "interval"][dim]

    def fix_expr(e: N.Expr) -> N.Expr:
        if isinstance(e, N.Read) and not e.idx and e.name in scalar_env:
            return scalar_env[e.name]
        if isinstance(e, (N.Read, N.WindowExpr, N.StrideExpr)) and e.name in buffer_env:
            buf, wdims = buffer_env[e.name]
            if isinstance(e, N.Read):
                if not e.idx:
                    if wdims is None:
                        return N.Read(buf, [], e.typ)
                    # whole-parameter read of a windowed actual: reconstruct
                    # the window so deeper (non-inlined) calls still see it
                    idx = [
                        N.Interval(lo, hi)
                        if kind == "interval"
                        else N.Point(lo)
                        for kind, lo, hi in wdims
                    ]
                    return N.WindowExpr(buf, idx, e.typ)
                idx = compose_window_index(wdims, list(e.idx)) if wdims is not None else list(e.idx)
                return N.Read(buf, idx, e.typ)
            if isinstance(e, N.StrideExpr):
                # windows are unit-step views: the stride of callee dim d is
                # the base buffer's stride at the d-th interval dimension
                dim = e.dim if wdims is None else interval_index(wdims, e.dim)
                return N.StrideExpr(buf, dim, e.typ)
            # WindowExpr over a windowed argument: compose the two windows
            if wdims is None:
                return N.WindowExpr(buf, e.idx, e.typ)
            new_idx: List[object] = []
            k = 0
            for kind, lo, _hi in wdims:
                if kind == "point":
                    new_idx.append(N.Point(lo))
                else:
                    d = e.idx[k]
                    k += 1
                    if isinstance(d, N.Interval):
                        new_idx.append(
                            N.Interval(
                                N.BinOp("+", lo, d.lo, index_t),
                                N.BinOp("+", lo, d.hi, index_t),
                            )
                        )
                    else:
                        new_idx.append(N.Point(N.BinOp("+", lo, d.pt, index_t)))
            return N.WindowExpr(buf, new_idx, e.typ)
        return e

    def fix_stmt(s: N.Stmt):
        if not isinstance(s, (N.Assign, N.Reduce)):
            return s
        if s.name in buffer_env:
            buf, wdims = buffer_env[s.name]
            idx = s.idx if wdims is None else compose_window_index(wdims, s.idx)
            s = with_fields(s, name=buf, idx=idx)
        if s.name in scalar_env:  # the callee's own copy: the caller never sees it
            raise InlineError("callee writes a scalar argument")
        return s

    out = [map_exprs(s, fix_expr) for s in body]
    return map_stmts(out, fix_stmt)
