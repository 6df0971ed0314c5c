"""Types of the object language.

The type system mirrors Exo's object language:

* numeric scalar types — ``f32``, ``f64``, ``i8``, ``i16``, ``i32``
* control types — ``index`` (loop iterators / index expressions),
  ``size`` (positive runtime sizes), ``bool``, ``int`` (integer literals used
  inside index arithmetic)
* tensor types — ``TensorType(base, shape, is_window)`` where ``shape`` is a
  list of index expressions; windows are views over other tensors.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "ScalarType",
    "TensorType",
    "f16",
    "f32",
    "f64",
    "i8",
    "i16",
    "i32",
    "index_t",
    "size_t",
    "bool_t",
    "int_t",
    "scalar_type_from_name",
    "arith_type",
    "NUMERIC_TYPE_NAMES",
]


class ScalarType:
    """A scalar object-language type (numeric or control)."""

    __slots__ = ("name", "is_numeric", "is_float", "bits")

    def __init__(self, name: str, *, is_numeric: bool, is_float: bool, bits: int):
        self.name = name
        self.is_numeric = is_numeric
        self.is_float = is_float
        self.bits = bits

    # -- classification helpers -------------------------------------------------
    def is_indexable(self) -> bool:
        return self.name in ("index", "size", "int")

    def is_bool(self) -> bool:
        return self.name == "bool"

    def is_tensor_or_window(self) -> bool:
        return False

    def basetype(self) -> "ScalarType":
        return self

    def ctype(self) -> str:
        """The C type used by the backend for this scalar type."""
        mapping = {
            "f16": "_Float16",
            "f32": "float",
            "f64": "double",
            "i8": "int8_t",
            "i16": "int16_t",
            "i32": "int32_t",
            "index": "int_fast32_t",
            "size": "int_fast32_t",
            "int": "int_fast32_t",
            "bool": "bool",
        }
        return mapping[self.name]

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("ScalarType", self.name))


f16 = ScalarType("f16", is_numeric=True, is_float=True, bits=16)
f32 = ScalarType("f32", is_numeric=True, is_float=True, bits=32)
f64 = ScalarType("f64", is_numeric=True, is_float=True, bits=64)
i8 = ScalarType("i8", is_numeric=True, is_float=False, bits=8)
i16 = ScalarType("i16", is_numeric=True, is_float=False, bits=16)
i32 = ScalarType("i32", is_numeric=True, is_float=False, bits=32)
index_t = ScalarType("index", is_numeric=False, is_float=False, bits=32)
size_t = ScalarType("size", is_numeric=False, is_float=False, bits=32)
bool_t = ScalarType("bool", is_numeric=False, is_float=False, bits=8)
int_t = ScalarType("int", is_numeric=False, is_float=False, bits=32)

NUMERIC_TYPE_NAMES = {"f16", "f32", "f64", "i8", "i16", "i32"}

_BY_NAME = {
    t.name: t
    for t in (f16, f32, f64, i8, i16, i32, index_t, size_t, bool_t, int_t)
}


def scalar_type_from_name(name: str) -> ScalarType:
    """Look up a scalar type by its object-language name (e.g. ``"f32"``)."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown scalar type: {name!r}")
    return _BY_NAME[name]


def arith_type(lhs, rhs) -> ScalarType:
    """The type of ``lhs op rhs`` for an arithmetic ``op`` over operands of
    types ``lhs`` and ``rhs``: a float type when either is one (the first),
    otherwise the first numeric type, otherwise ``index``.  The engines read
    it: ``/`` of a non-float type is floor division."""
    lhs_numeric = isinstance(lhs, ScalarType) and lhs.is_numeric
    rhs_numeric = isinstance(rhs, ScalarType) and rhs.is_numeric
    if lhs_numeric and (lhs.is_float or not (rhs_numeric and rhs.is_float)):
        return lhs
    return rhs if rhs_numeric else index_t


class TensorType:
    """A dense tensor (or window) of a scalar base type.

    ``shape`` is a list of index *expressions* (see :mod:`repro.ir.nodes`);
    a window type describes a view into somebody else's storage and is the
    type given to window arguments written ``[f32][M, N]`` in the surface
    syntax.
    """

    __slots__ = ("base", "shape", "is_window")

    def __init__(self, base: ScalarType, shape: List[object], is_window: bool = False):
        if not isinstance(base, ScalarType) or not base.is_numeric:
            raise TypeError("tensor base type must be a numeric scalar type")
        self.base = base
        self.shape = list(shape)
        self.is_window = bool(is_window)

    def basetype(self) -> ScalarType:
        return self.base

    def is_indexable(self) -> bool:
        return False

    def is_bool(self) -> bool:
        return False

    def is_tensor_or_window(self) -> bool:
        return True

    def ndim(self) -> int:
        return len(self.shape)

    def as_window(self) -> "TensorType":
        return TensorType(self.base, self.shape, True)

    def __repr__(self) -> str:
        from .printing import expr_str

        dims = ", ".join(expr_str(e) for e in self.shape)
        if self.is_window:
            return f"[{self.base}][{dims}]"
        return f"{self.base}[{dims}]"
