"""Lowering helpers shared by the execution backends.

Two backends lower the same object IR to executable form: the C code
generator (:mod:`repro.backend.codegen`) and the NumPy compiled execution
engine (:mod:`repro.interp.compile`).  Both need the same structural
analyses — row-major stride computation, multi-dimensional index flattening,
affine-in-one-iterator decomposition (the basis of loop vectorisation) and a
conservative non-negativity check used to elide bounds guards.  They differ
only in how expressions are *rendered* (C source vs Python source), so every
helper here takes a ``render`` callback instead of hard-coding a syntax.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..ir import nodes as N
from ..ir.build import contains_sym, map_exprs, map_stmts, with_fields
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType, index_t

__all__ = [
    "NP_DTYPES",
    "np_dtype_for",
    "row_major_strides",
    "flatten_index",
    "affine_decompose",
    "biaffine_decompose",
    "provably_nonneg",
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


def flatten_index(
    name,
    idx: Sequence[N.Expr],
    strides: Dict,
    render: Callable[[N.Expr], str],
) -> str:
    """Render a multi-dimensional access as a flat row-major offset.

    ``strides`` maps buffer names to their rendered per-dimension strides (as
    produced by :func:`row_major_strides`); unknown dimensions are treated as
    stride 1.
    """
    dims = strides.get(name)
    parts: List[str] = []
    for d, e in enumerate(idx):
        s = dims[d] if dims and d < len(dims) else None
        es = render(e)
        if s is None or s == "1":
            parts.append(es)
        else:
            parts.append(f"({es}) * ({s})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Affine decomposition (the analysis behind loop vectorisation)
# ---------------------------------------------------------------------------


def _is_const_int(e) -> bool:
    return isinstance(e, N.Const) and isinstance(e.val, (int, np.integer)) and not isinstance(e.val, bool)


def affine_decompose(e: N.Expr, ivar: Sym) -> Optional[Tuple[int, Optional[N.Expr]]]:
    """Decompose ``e`` as ``coeff * ivar + offset``.

    Returns ``(coeff, offset)`` where ``coeff`` is a constant Python int and
    ``offset`` is an IR expression free of ``ivar`` (``None`` stands for 0), or
    ``None`` when ``e`` is not affine in ``ivar`` with a constant coefficient.
    The offset expressions built here are throwaway analysis artefacts — they
    are never spliced back into a program tree.
    """
    if isinstance(e, N.Const):
        return (0, e)
    if isinstance(e, N.Read) and not e.idx:
        if e.name is ivar:
            return (1, None)
        return (0, e)
    if isinstance(e, N.USub):
        sub = affine_decompose(e.arg, ivar)
        if sub is None:
            return None
        c, off = sub
        return (-c, None if off is None else N.USub(off))
    if isinstance(e, N.BinOp):
        if e.op in ("+", "-"):
            l = affine_decompose(e.lhs, ivar)
            r = affine_decompose(e.rhs, ivar)
            if l is None or r is None:
                return None
            (cl, ol), (cr, orr) = l, r
            c = cl + cr if e.op == "+" else cl - cr
            if orr is None:
                off = ol
            elif ol is None:
                off = orr if e.op == "+" else N.USub(orr)
            else:
                off = N.BinOp(e.op, ol, orr)
            return (c, off)
        if e.op == "*":
            l = affine_decompose(e.lhs, ivar)
            r = affine_decompose(e.rhs, ivar)
            if l is None or r is None:
                return None
            (cl, ol), (cr, orr) = l, r
            if cl == 0 and cr == 0:
                return (0, e)
            # exactly one side depends on ivar; the other must be a constant
            # for the coefficient to stay constant
            if cl != 0 and cr == 0 and _is_const_int(e.rhs):
                k = int(e.rhs.val)
                return (cl * k, None if ol is None else N.BinOp("*", ol, e.rhs))
            if cr != 0 and cl == 0 and _is_const_int(e.lhs):
                k = int(e.lhs.val)
                return (cr * k, None if orr is None else N.BinOp("*", e.lhs, orr))
            return None
        # division / modulo / comparisons only allowed when ivar-free
        if not contains_sym(e, ivar):
            return (0, e)
        return None
    if not contains_sym(e, ivar):
        return (0, e)
    return None


def biaffine_decompose(
    e: N.Expr, outer: Sym, inner: Optional[Sym]
) -> Optional[Tuple[int, int, Optional[N.Expr]]]:
    """Decompose ``e`` as ``a * outer + b * inner + offset``.

    ``a`` and ``b`` are constant Python ints and ``offset`` is free of both
    iterators (``None`` stands for 0).  ``inner`` may be ``None`` for
    statements that sit directly in the outer loop (then ``b`` is 0).  Returns
    ``None`` when the expression is not bi-affine with constant coefficients.
    This is the analysis behind the compiled engine's outer-loop (chunked)
    vectorisation of inlined ``@instr`` bodies.
    """
    if inner is not None:
        dec = affine_decompose(e, inner)
        if dec is None:
            return None
        b, rest = dec
    else:
        b, rest = 0, e
    if rest is None:
        return (0, b, None)
    dec2 = affine_decompose(rest, outer)
    if dec2 is None:
        return None
    a, off = dec2
    if off is not None and inner is not None and contains_sym(off, inner):
        return None
    return (a, b, off)


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
    composition ``base[lo + i]`` that makes inlined accesses analysable by
    :func:`affine_decompose`).
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


def provably_nonneg(e: N.Expr, nonneg_syms: Set[Sym]) -> bool:
    """Conservatively decide whether ``e`` always evaluates >= 0.

    ``nonneg_syms`` holds symbols known non-negative (``size`` arguments and
    loop iterators whose lower bound is itself provably non-negative).  Used by
    the compiled engine to elide negative-index guards on hot accesses.
    """
    if isinstance(e, N.Const):
        return isinstance(e.val, (int, float, np.integer, np.floating)) and e.val >= 0
    if isinstance(e, N.Read) and not e.idx:
        return e.name in nonneg_syms
    if isinstance(e, N.BinOp) and e.op in ("+", "*", "/", "%"):
        return provably_nonneg(e.lhs, nonneg_syms) and provably_nonneg(e.rhs, nonneg_syms)
    return False
