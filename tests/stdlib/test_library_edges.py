"""Library helpers on inputs the four libraries never give them: a loop nest
through a guard, tiling that divides evenly, more tile sizes than loops, a
buffer the scope never touches, accesses whose bounds must be merged, and an
allocation nothing uses."""
from __future__ import annotations

import pytest

from repro import SchedulingError, proc_from_source
from repro.interp import check_equiv
from repro.ir import expr_str
from repro.stdlib import (
    cleanup, general_tile2D, get_inner_loop, get_reused_vector, infer_bounds, tile_loops_bottom_up,
)

GRID = proc_from_source(
    "def g(M: size, N: size, A: f32[M, N] @ DRAM):\n"
    "    for i in seq(0, M):\n"
    "        for j in seq(0, N):\n"
    "            A[i, j] = 1.0\n"
).partial_eval(M=16, N=16)
TILED = (
    "    for io in seq(0, 16 / 4):\n"
    "        for jo in seq(0, 16 / 4):\n"
    "            for ii in seq(0, 4):\n"
    "                for ji in seq(0, 4):\n"
    "                    A[4 * io + ii, 4 * jo + ji] = 1.0"
)
GUARDED = proc_from_source(
    "def h(n: size, x: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        if n > 3:\n"
    "            for j in seq(0, 4):\n"
    "                x[i] = 1.0\n"
)


def test_tiling_that_divides_evenly_is_perfect_and_lifts_every_block_loop():
    assert str(general_tile2D(GRID, "i", "j", ["io", "ii"], ["jo", "ji"], 4, 4)).endswith(TILED)
    bottom_up = tile_loops_bottom_up(GRID, GRID.find_loop("i"), [4, 4])
    assert str(bottom_up).endswith(TILED) and check_equiv(GRID, bottom_up, {})
    with pytest.raises(SchedulingError, match="tile_loops_bottom_up: more tile sizes than loops in the nest"):
        tile_loops_bottom_up(GRID, GRID.find_loop("i"), [4, 4, 4])


def test_the_inner_loop_of_a_nest_is_found_through_a_guard():
    assert get_inner_loop(GUARDED, GUARDED.find_loop("i")).name() == "j"
    with pytest.raises(SchedulingError, match="could not find a reused vector in the inner loop"):
        get_reused_vector(GUARDED, GUARDED.find_loop("j"))


def test_infer_bounds_merges_offsets_and_reversed_accesses_and_refuses_an_untouched_buffer():
    p = proc_from_source(
        "def k(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n >= 8\n"
        "    for i in seq(0, 4):\n"
        "        x[i] = x[i + 2] + x[n - 1 - i]\n"
    )
    b = infer_bounds(p, p.find_loop("i"), "x")
    assert (b.reads, b.writes) == (2, 1)
    assert [expr_str(e) for e in b.lo] == ["0"] and [expr_str(e) for e in b.hi] == ["n"]
    with pytest.raises(SchedulingError, match="infer_bounds: 'y' is not accessed within the scope"):
        infer_bounds(p, p.find_loop("i"), "y")


def test_cleanup_deletes_an_allocation_nothing_uses():
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    t: f32[4] @ DRAM\n    x[0] = 1.0\n")
    assert str(cleanup(p)) == "def f(x: f32[4] @ DRAM):\n    x[0] = 1.0"


@pytest.mark.parametrize("body", ["y[i] = y[i] + a * x[i]", "y[i] = -x[i]", "y[i] = fabs(x[i])"])
def test_vectorize_stages_assign_fmas_negations_and_externs(body):
    # loads and stores map onto instructions; the arithmetic the machine has
    # no instruction for stays a lane loop over registers, still correct
    from repro.machines import AVX2
    from repro.stdlib import fma_rule, vectorize

    p = proc_from_source(
        "def f(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    for i in seq(0, n):\n"
        f"        {body}\n"
    )
    iset = AVX2.get_instruction_set("f32")
    q = vectorize(p, p.find_loop("i"), 8, "f32", AVX2.mem_type, iset.all(), rules=[fma_rule])
    text = str(q)
    assert "avx2_f32_load(var2[0:8], x[8 * io:8 * io + 8])" in text
    assert "avx2_f32_store(y[8 * io:8 * io + 8], var1[0:8])" in text
    assert check_equiv(p, q, {"n": 24})


def test_fission_into_singles_takes_the_width_from_the_loop_and_splits_a_guard():
    from repro.stdlib import fission_into_singles

    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        t: f32 @ DRAM\n"
        "        t = x[i] * 2.0\n"
        "        y[i] = t + x[i]\n"
    )
    q = fission_into_singles(p, "i")  # no width given: the loop's 8
    assert "    t: f32[8] @ DRAM\n    for i in seq(0, 8):\n        t[i] = x[i] * 2.0\n    for i in seq(0, 8):" in str(q)
    assert check_equiv(p, q, {"n": 8})
    g = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        if i < 6:\n"
        "            y[i] = x[i]\n"
        "            x[i] = 0.0\n"
    )
    h = fission_into_singles(g, "i")
    assert str(h).count("if i < 6:") == 2 and check_equiv(g, h, {"n": 8})


def test_cse_binds_a_read_repeated_in_one_statement():
    from repro.stdlib import CSE

    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        y[i] = x[i] * x[i]\n"
    )
    q = CSE(p, p.find("y[_] = _"))
    assert "shared0 = x[i]\n        y[i] = shared0 * shared0" in str(q) and check_equiv(p, q, {"n": 8})


def test_vectorize_keeps_a_guard_on_every_lane_statement():
    from repro.machines import AVX2
    from repro.stdlib import fma_rule, vectorize

    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    for i in seq(0, n):\n"
        "        if i < n - 1:\n"
        "            y[i] = x[i] * 2.0\n"
    )
    iset = AVX2.get_instruction_set("f32")
    q = vectorize(p, p.find_loop("i"), 8, "f32", AVX2.mem_type, iset.all(), rules=[fma_rule])
    assert str(q).count("if ii + 8 * io < n - 1:") == 2 and check_equiv(p, q, {"n": 16})


def _vectorized(body, rules=None):
    from repro.machines import AVX2
    from repro.stdlib import fma_rule, vectorize

    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    for i in seq(0, n):\n"
        f"{body}"
    )
    iset = AVX2.get_instruction_set("f32")
    q = vectorize(p, p.find_loop("i"), 8, "f32", AVX2.mem_type, iset.all(),
                  rules=[fma_rule] if rules is None else rules)
    assert check_equiv(p, q, {"n": 24})
    return str(q)


@pytest.mark.parametrize("operand, staged", [("-x[i]", "var3[ii] = -var2[ii]"),
                                             ("fabs(x[i])", "var3[ii] = fabs(var2[ii])")])
def test_vectorize_binds_a_negation_or_an_extern_inside_a_product_to_its_own_register(operand, staged):
    # the operand gets a register temporary of its own, so the product is
    # one vector multiply of two registers
    text = _vectorized(f"        y[i] = {operand} * x[i]\n")
    assert staged in text
    assert "avx2_f32_mul(var1[0:8], var3[0:8], var2[0:8])" in text


def test_vectorize_leaves_an_operation_a_rule_keeps_fused_in_one_statement():
    from repro.ir import nodes as N
    from repro.ir.build import walk

    def keep_sums(stmt):
        rhs = stmt._node().rhs
        return [id(n) for n, _ in walk(rhs) if isinstance(n, N.BinOp) and n.op == "+" and n is not rhs]

    # the kept sum is not a register operand, so the product around it is not
    # staged either: the statement stays one lane loop over the loaded register
    text = _vectorized("        y[i] = (x[i] + x[i]) * x[i] * 2.0\n", [keep_sums])
    assert "var1[ii] = (var2[ii] + var2[ii]) * var2[ii] * 2.0" in text


def test_vectorize_does_not_stage_a_guard_inside_a_guard():
    text = _vectorized("        if i > 2:\n            if i < 9:\n                y[i] = x[i]\n")
    assert "if ii + 8 * io < 9:\n                    y[ii + 8 * io] = x[ii + 8 * io]" in text
    assert "VEC_AVX2" not in text


def test_vectorize_refuses_a_loop_simplification_removes():
    from repro.machines import AVX2
    from repro.stdlib import vectorize

    p = proc_from_source("def f(x: f32[1] @ DRAM, y: f32[1] @ DRAM):\n    for i in seq(0, 1):\n        y[i] = x[i]\n")
    iset = AVX2.get_instruction_set("f32")
    with pytest.raises(SchedulingError, match="vectorize: lost the lane loop of 'i' to simplification"):
        vectorize(p, p.find_loop("i"), 8, "f32", AVX2.mem_type, iset.all())


def test_fission_into_singles_keeps_an_allocation_shaped_by_the_lane_iterator_inside():
    from repro.stdlib import fission_into_singles

    # the allocation cannot leave the loop, so the loop cannot be split
    # between it and its use
    p = proc_from_source(
        "def f(x: f32[8, 9] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        t: f32[i + 1] @ DRAM\n"
        "        t[0] = 1.0\n"
        "        x[i, 0] = t[0]\n"
    )
    with pytest.raises(SchedulingError, match="fission: statements after the gap depend on allocations before it"):
        fission_into_singles(p, "i", 8)


def test_infer_bounds_refuses_two_bounds_it_cannot_order():
    # keeping either one would leave the other access outside the range
    p = proc_from_source(
        "def f(n: size, m: size, x: f32[n + m] @ DRAM):\n"
        "    for i in seq(0, 1):\n"
        "        x[n] = 1.0\n"
        "        x[m] = 2.0\n"
    )
    with pytest.raises(SchedulingError, match="infer_bounds: cannot order two bounds of 'x'"):
        infer_bounds(p, p.find_loop("i"), "x")


def test_auto_stage_mem_of_a_write_needs_no_load():
    from repro.stdlib import auto_stage_mem

    p = proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 2.0\n")
    q, (alloc, load, block, store) = auto_stage_mem(p, p.find("x[_] = _"), "x")
    assert alloc.is_valid() and not load.is_valid()
    assert str(block) == "x_tmp[0] = 2.0"
    assert str(store) == "for i0 in seq(0, 1):\n    x[i + i0] = x_tmp[i0]"
    assert check_equiv(p, q, {"n": 5})


def test_hoist_from_loop_leaves_a_statement_that_is_not_a_loop():
    from repro.stdlib import hoist_from_loop

    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    assert hoist_from_loop(p, p.find("x[_] = _")) is p
