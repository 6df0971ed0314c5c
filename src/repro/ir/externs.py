"""Extern functions callable from object code expressions.

Externs are pure scalar functions (``relu``, ``clamp``, ``select``, ``sqrt``,
``fmax``, ``fmin``, ``acc_scale``, …) with a Python reference implementation
(used by the interpreter) and a C expression template (used by the backend).

Users and machine libraries can register their own externs with
:func:`register_extern`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from .types import ScalarType, arith_type, f64, index_t

__all__ = ["ExternDef", "register_extern", "extern_by_name", "has_extern", "float_result"]


def arith_result(types: Sequence[ScalarType]) -> ScalarType:
    """The type of an arithmetic extern over arguments of ``types``: the
    parser's rule for ``+ - * /`` (a float type when any is one)."""
    return functools.reduce(arith_type, types, index_t)


def float_result(types: Sequence[ScalarType]) -> ScalarType:
    """The type of a floating-point function (``sqrt``, ``sin``, …): its
    first float argument's type, or ``f64`` over integers (C's libm
    computes a double)."""
    return next((t for t in types if t.is_float), f64)


@dataclass
class ExternDef:
    name: str
    arity: int
    impl: Callable
    c_template: str
    cost: float = 1.0
    # optional whole-array (NumPy) template used by the compiled execution
    # engine to vectorise loops containing this extern; when None, such loops
    # fall back to the scalar lowering (which calls ``impl`` directly)
    np_template: Optional[str] = None
    # the type of a call's result from its arguments' types; the engines read
    # it (a ``/`` over it floors unless it is a float type)
    result: Callable[[Sequence[ScalarType]], ScalarType] = arith_result

    def np_apply(self, rendered_args: Sequence[str]) -> Optional[str]:
        """Render the whole-array NumPy form over already-rendered argument
        sources, or ``None`` when the extern has no vector form.  Templates
        must be broadcasting-safe: the compiled engine applies them to 1-D
        slices and, for inlined ``@instr`` bodies, to 2-D (chunk x lane)
        regions alike."""
        if self.np_template is None:
            return None
        return self.np_template.format(*rendered_args)


_EXTERNS: Dict[str, ExternDef] = {}


def register_extern(
    name: str,
    arity: int,
    impl: Callable,
    c_template: str,
    cost: float = 1.0,
    np_template: Optional[str] = None,
    result: Callable[[Sequence[ScalarType]], ScalarType] = arith_result,
) -> ExternDef:
    """Register an extern function usable inside object-code expressions.

    ``np_template`` optionally supplies an elementwise whole-array form (e.g.
    ``"np.abs({0})"``) that lets the compiled engine vectorise loops using the
    extern; it must agree with ``impl`` elementwise.  ``result`` gives the
    type of a call from its arguments' types: by default the parser's rule
    for arithmetic, :func:`float_result` for a floating-point function."""
    d = ExternDef(name, arity, impl, c_template, cost, np_template, result)
    _EXTERNS[name] = d
    return d


def extern_by_name(name: str) -> ExternDef:
    if name not in _EXTERNS:
        raise KeyError(f"unknown extern function: {name!r}")
    return _EXTERNS[name]


def has_extern(name: str) -> bool:
    return name in _EXTERNS


def _select(cond_a, cond_b, if_ge, if_lt):
    """``select(a, b, x, y)`` — x if a >= b else y (Exo's select builtin)."""
    return if_ge if cond_a >= cond_b else if_lt


def _clamp(x, lo=-128.0, hi=127.0):
    return max(lo, min(hi, x))


register_extern("sin", 1, math.sin, "sin({0})", cost=8.0, np_template="np.sin({0})", result=float_result)
register_extern("cos", 1, math.cos, "cos({0})", cost=8.0, np_template="np.cos({0})", result=float_result)
register_extern("sqrt", 1, math.sqrt, "sqrt({0})", cost=4.0, np_template="np.sqrt({0})", result=float_result)
register_extern("fabs", 1, abs, "fabs({0})", cost=1.0, np_template="np.abs({0})", result=float_result)
register_extern("fmax", 2, max, "fmax({0}, {1})", cost=1.0, np_template="np.maximum({0}, {1})")
register_extern("fmin", 2, min, "fmin({0}, {1})", cost=1.0, np_template="np.minimum({0}, {1})")
register_extern(
    "relu", 1, lambda x: x if x > 0 else 0.0, "(({0}) > 0 ? ({0}) : 0)", cost=1.0,
    np_template="np.where(({0}) > 0, ({0}), 0.0)",  # NaN -> 0.0, like the impl
)
register_extern(
    "select", 4, _select, "(({0}) >= ({1}) ? ({2}) : ({3}))", cost=1.0,
    np_template="np.where(({0}) >= ({1}), ({2}), ({3}))",
    result=lambda types: arith_result(types[2:]),  # the type of what it selects
)
register_extern(
    "clamp", 1, _clamp, "fminf(fmaxf({0}, -128.0f), 127.0f)", cost=2.0,
    np_template="np.clip({0}, -128.0, 127.0)", result=float_result,
)
register_extern(
    "acc_scale", 2, lambda x, scale: x * scale, "(({0}) * ({1}))", cost=1.0,
    np_template="(({0}) * ({1}))",
)
register_extern("expf", 1, math.exp, "expf({0})", cost=8.0, np_template="np.exp({0})", result=float_result)
