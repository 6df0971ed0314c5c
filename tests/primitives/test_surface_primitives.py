"""Paper-named primitives no library schedule calls: ``inline_window``,
``set_window``, ``add_assertion``, the ``dce`` / ``replace_all_stmts``
aliases, and the ``@instr`` decorator."""
from __future__ import annotations

import pytest

from repro import (
    SchedulingError, add_assertion, dce, eliminate_dead_code, inline_window, instr, proc_from_source,
    replace_all, replace_all_stmts, set_window,
)
from repro.backend.codegen import emit_unit
from repro.interp import check_equiv
from repro.lang import *  # noqa: F401,F403


@instr("{dst_data} = _mm256_loadu_ps(&{src_data});", cost=2.0)
def load8(dst: [f32][8] @ DRAM, src: [f32][8] @ DRAM):
    for i in seq(0, 8):
        dst[i] = src[i]


WINDOWED = """
def f(n: size, x: f32[n, 8] @ DRAM, y: f32[4] @ DRAM):
    w = x[1, 2:6]
    for i in seq(0, 4):
        y[i] = w[i] * 2.0
        w[i] += y[i]
"""


def test_inline_window_rewrites_reads_writes_and_reductions():
    p = proc_from_source(WINDOWED)
    q = inline_window(p, p.find("w = _"))
    assert "w" not in str(q).replace("def f", "")
    assert "y[i] = x[1, 2 + i] * 2.0" in str(q) and "x[1, 2 + i] += y[i]" in str(q)
    assert check_equiv(p, q, {"n": 4})


@pytest.mark.parametrize("use", ["g(w)", "g(w[0:4])"])
def test_inline_window_refuses_a_window_passed_on(use):
    g = proc_from_source("def g(v: [f32][4] @ DRAM):\n    v[0] = 1.0\n")
    p = proc_from_source(f"def f(x: f32[8] @ DRAM):\n    w = x[2:6]\n    {use}\n", {"g": g})
    with pytest.raises(SchedulingError, match="inline_window"):
        inline_window(p, p.find("w = _"))


def test_set_window_changes_the_calling_convention_of_an_argument():
    p = proc_from_source(WINDOWED)
    q = set_window(p, "x")
    assert q.get_arg("x").typ().is_window and not p.get_arg("x").typ().is_window
    assert "x: [f32][n, 8] @ DRAM" in str(q)
    assert not set_window(q, "x", False).get_arg("x").typ().is_window
    with pytest.raises(SchedulingError, match="only arguments"):
        set_window(proc_from_source("def g(n: size):\n    t: f32[n] @ DRAM\n"), "t")


def test_add_assertion_takes_a_string_or_an_expression(gemv):
    q = add_assertion(gemv, "M > 8")
    assert "assert M > 8" in str(q)
    r = add_assertion(gemv, q._root.preds[-1])
    assert str(r) == str(q)


def test_dce_is_eliminate_dead_code_over_the_whole_procedure():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        if 1 < 0:\n"
        "            x[i] = 0.0\n"
    )
    assert "if" not in str(dce(p))
    assert str(dce(p)) == str(eliminate_dead_code(p))


def test_replace_all_stmts_is_replace_all():
    p = proc_from_source(
        "def copy(x: f32[16] @ DRAM, y: f32[16] @ DRAM):\n"
        "    for jo in seq(0, 2):\n"
        "        for ji in seq(0, 8):\n"
        "            y[8 * jo + ji] = x[8 * jo + ji]\n"
    )
    q = replace_all_stmts(p, [load8])
    assert "load8(y[8 * jo:8 * jo + 8], x[8 * jo:8 * jo + 8])" in str(q)
    assert str(q) == str(replace_all(p, [load8]))
    assert check_equiv(p, q, {})


def test_instr_attaches_its_template_to_the_procedure():
    assert load8.is_instr() and load8.name() == "load8"
    info = load8._root.instr
    assert (info.c_instr, info.cost) == ("{dst_data} = _mm256_loadu_ps(&{src_data});", 2.0)
    p = proc_from_source(
        "def copy8(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n    load8(y[0:8], x[0:8])\n", {"load8": load8}
    )
    # a template not marked as a real intrinsic documents the instruction;
    # the C backend inlines the body
    assert not info.intrinsic
    assert "/* load8 */" in emit_unit(p).source and "_mm256" not in emit_unit(p).source
