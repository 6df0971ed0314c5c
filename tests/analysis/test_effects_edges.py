"""The effect analysis on the statement forms the library kernels never
produce: windows, strides, whole-buffer call arguments, else-branches,
configuration state, and loop-local allocations.  Each case pins the verdict
(commute or not, idempotent or not, ``par``-legal or why not)."""
from __future__ import annotations

import pytest

from repro import SchedulingError, add_loop, new_config, parallelize_loop, proc_from_source
from repro.analysis import accesses_of, is_idempotent, stmts_commute
from repro.analysis.effects import ParUnproven, par_write_classes, written_arguments
from repro.frontend.parser import parse_expr_fragment
from repro.ir.build import with_fields
from repro.ir.types import index_t

CFG = new_config("effects_cfg", [("k", index_t)])


def _body(src, env=None):
    return proc_from_source(src, {"effects_cfg": CFG, **(env or {})})._root.body


def test_a_stride_read_and_an_else_branch_are_accesses():
    s = _body(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    if n > 2:\n"
        "        y[0] = 1.0\n"
        "    else:\n"
        "        y[1] = stride(x, 0)\n"
    )
    kinds = {(a.buf.name, a.kind, a.idx is None) for a in accesses_of(s)}
    assert ("x", "read", True) in kinds and ("y", "write", False) in kinds


def test_a_window_statement_reads_its_buffer_and_writes_its_alias():
    body = _body(
        "def f(x: f32[8] @ DRAM):\n"
        "    w = x[0:4]\n"
        "    w[1] = 2.0\n"
    )
    assert [(a.buf.name, a.kind) for a in accesses_of(body[0])] == [("x", "read"), ("w", "write")]
    assert not stmts_commute(body[0], body[1])


def test_a_write_through_a_window_alias_writes_the_argument():
    root = proc_from_source(
        "def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        "    w = x[0:4]\n"
        "    w[1] = y[0]\n"
    )._root
    assert {s.name for s in written_arguments(root)} == {"x"}


def test_a_whole_buffer_call_argument_is_read_and_written():
    g = proc_from_source("def g(v: [f32][8] @ DRAM):\n    v[0] = 1.0\n")
    body = _body(
        "def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        "    g(x)\n"
        "    y[0] = x[1]\n",
        {"g": g},
    )
    assert [(a.buf.name, a.kind) for a in accesses_of(body[0])] == [("x", "read"), ("x", "write")]
    assert not stmts_commute(body[0], body[1])


def test_configuration_state_orders_statements():
    body = _body(
        "def f(x: f32[8] @ DRAM):\n"
        "    effects_cfg.k = 2\n"
        "    for i in seq(0, effects_cfg.k):\n"
        "        x[i] = 1.0\n"
        "    x[7] = 3.0\n"
    )
    assert not stmts_commute(body[0], body[1])  # a write before a read
    assert stmts_commute(body[0], body[2])


def test_allocations_shield_and_bind_their_statements():
    body = _body(
        "def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        "    t: f32 @ DRAM\n"
        "    t = x[0]\n"
        "    y[0] = t\n"
        "    for i in seq(0, 2):\n"
        "        u: f32 @ DRAM\n"
        "        u = x[i]\n"
        "        x[i + 2] = u\n"
    )
    assert not stmts_commute(body[0:2], body[2])  # y[0] reads the t allocated before it
    assert not stmts_commute(body[2], body[0:2])
    assert stmts_commute(body[3], body[2])  # u stays inside the loop


@pytest.mark.parametrize("second, commute", [
    ("x[0] += 2.0", True),   # two reductions into one buffer
    ("x[1] = 2.0", True),    # provably different cells
    ("x[0] = 2.0", False),
])
def test_writes_to_one_buffer(second, commute):
    body = _body(f"def f(x: f32[8] @ DRAM):\n    x[0] += 1.0\n    {second}\n")
    assert stmts_commute(body[0], body[1]) is commute


def test_a_block_reading_and_writing_configuration_state_is_not_idempotent():
    p = proc_from_source(
        "def f(x: f32[8] @ DRAM):\n"
        "    effects_cfg.k = effects_cfg.k + 1\n",
        {"effects_cfg": CFG},
    )
    assert not is_idempotent(p._root.body)
    with pytest.raises(SchedulingError, match="add_loop: the statement block must be idempotent"):
        add_loop(p, p.body()[0], "r", 2)


def _par_loop(body, env=None):
    return proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in par(0, n):\n"
        f"        {body}\n",
        {"effects_cfg": CFG, **(env or {})},
    )


@pytest.mark.parametrize("body, reason", [
    ("effects_cfg.k = 1", "par body touches configuration state"),
    ("x[effects_cfg.k] = 1.0", "par body touches configuration state"),
])
def test_par_refusals(body, reason):
    loop = _par_loop(body)._root.body[0]
    with pytest.raises(ParUnproven, match=reason):
        par_write_classes(loop)


def test_parallelize_loop_refuses_an_iterator_dependent_configuration_write():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        effects_cfg.k = i\n",
        {"effects_cfg": CFG},
    )
    with pytest.raises(SchedulingError, match="parallelize_loop: loop iterations carry dependencies"):
        parallelize_loop(p, "i")


def test_a_window_of_a_buffer_every_iteration_writes_is_not_distinct_cells():
    g = proc_from_source("def g(v: [f32][1] @ DRAM):\n    v[0] = 1.0\n")
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        g(x[i:i + 1])\n",
        {"g": g},
    )
    with pytest.raises(SchedulingError, match="parallelize_loop: loop iterations carry dependencies"):
        parallelize_loop(p, "i")


def test_a_par_loop_inside_a_sequential_loop_is_proven_under_its_bounds():
    from repro.backend.codegen import CodegenOptions, emit_unit

    p = proc_from_source(
        "def f(n: size, x: f32[n, 8] @ DRAM):\n"
        "    for j in seq(0, n):\n"
        "        for i in par(0, 8):\n"
        "            x[j, i] = 1.0\n"
    )
    assert "#pragma omp parallel for" in emit_unit(p, CodegenOptions(openmp=True)).source


def test_a_window_in_a_value_position_reads_its_buffer():
    # the parser refuses a window as a value, but a primitive's expression
    # argument is parsed as a fragment, where a window may stand
    root = proc_from_source("def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n    x[0] = y[0]\n")._root
    stmt = with_fields(root.body[0], rhs=parse_expr_fragment("y[0:2]", root))
    assert ("y", "read") in [(a.buf.name, a.kind) for a in accesses_of(stmt)]
