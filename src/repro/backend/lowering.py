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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir import nodes as N
from ..ir.build import map_exprs, map_stmts, with_fields
from ..ir.syms import Sym
from ..ir.types import TensorType, index_t

__all__ = [
    "NP_DTYPES",
    "np_dtype_for",
    "row_major_strides",
    "InlineError",
    "window_dims",
    "compose_window_index",
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
            if k >= len(inner_idx):
                raise InlineError("window rank does not match the callee access")
            out.append(N.BinOp("+", lo, inner_idx[k], index_t))
            k += 1
    return out


def substitute_call_body(
    params: Sequence[N.FnArg],
    actuals: Sequence[N.Expr],
    body: Sequence[N.Stmt],
) -> List[N.Stmt]:
    """Substitute call actuals into an (already alpha-renamed) callee body.

    Tensor parameters must be bound to whole-buffer reads or window
    expressions (accesses are rewritten onto the base buffer with composed
    indices); scalar parameters are substituted by their actual expressions.
    Raises :class:`InlineError` for unsupported shapes — notably a callee that
    writes a scalar parameter bound to a non-variable expression.
    """
    scalar_env: Dict[Sym, N.Expr] = {}
    buffer_env: Dict[Sym, Tuple[Sym, Optional[list]]] = {}
    for fn_arg, actual in zip(params, actuals):
        if isinstance(fn_arg.typ, TensorType):
            if isinstance(actual, N.WindowExpr):
                buffer_env[fn_arg.name] = (actual.name, window_dims(actual))
            elif isinstance(actual, N.Read) and not actual.idx:
                buffer_env[fn_arg.name] = (actual.name, None)
            else:
                raise InlineError("unsupported tensor argument at the call site")
        else:
            scalar_env[fn_arg.name] = actual

    def interval_index(wdims, dim: int) -> int:
        """Map a callee dimension to the base-buffer dimension it views."""
        seen = 0
        for d, (kind, _lo, _hi) in enumerate(wdims):
            if kind == "interval":
                if seen == dim:
                    return d
                seen += 1
        raise InlineError("stride dimension outside the window rank")

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
                    if k >= len(e.idx):
                        raise InlineError("window rank does not match the callee access")
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
        if s.name in scalar_env:
            target = scalar_env[s.name]
            if not isinstance(target, N.Read):
                raise InlineError("callee writes a scalar argument bound to an expression")
            s = with_fields(s, name=target.name, idx=target.idx)
        return s

    out = [map_exprs(s, fix_expr) for s in body]
    return map_stmts(out, fix_stmt)
