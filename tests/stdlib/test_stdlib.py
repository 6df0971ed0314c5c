"""User-level scheduling library tests: combinators, inspection, tiling, vectorize, ELEVATE."""
from __future__ import annotations

import pytest

from repro import SchedulingError, divide_loop, lift_alloc, proc_from_source, unroll_loop
from repro.api import TraceRecorder
from repro.blas import opt_skinny
from repro.interp import check_equiv
from repro.machines import AVX2
from repro.stdlib import (
    CSE, fma_rule, general_tile2D, get_inner_loop, hoist_stmt, infer_bounds, interleave_loop,
    is_invalid, lift, loop_nest, lrn, repeat, round_loop, seq, tile2D, tile_loops_bottom_up, tilenD, try_else,
    unroll_and_jam, vectorize, auto_stage_mem, filter_c,
)


def test_tile2D_and_general_tile2D(gemv):
    t = tile2D(gemv, "i", "j", ["io", "ii"], ["jo", "ji"], 8, 8)
    assert check_equiv(gemv, t, {"M": 16, "N": 16})
    # general_tile2D falls back to guarded tiling for non-divisible sizes
    axpy2d = proc_from_source(
        "def k(M: size, N: size, A: f32[M, N] @ DRAM):\n"
        "    for i in seq(0, M):\n"
        "        for j in seq(0, N):\n"
        "            A[i, j] = A[i, j] * 2.0\n"
    )
    g = general_tile2D(axpy2d, "i", "j", ["io", "ii"], ["jo", "ji"], 8, 8)
    assert check_equiv(axpy2d, g, {"M": 13, "N": 11})


def test_higher_order_combinators(gemv):
    # repeat(lift_alloc) lifts an allocation as far as possible, then stops
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        t: f32 @ DRAM\n"
        "        t = x[i]\n"
        "        x[i] = t + 1.0\n"
    )
    alloc = p.find("t: _")
    res = repeat(lift_alloc)(p, alloc)
    q = res[0] if isinstance(res, tuple) else res
    assert str(q).splitlines()[1].strip().startswith("t:")  # now at the top level

    # try_else falls back when the first op fails
    def fails(p, c):
        raise SchedulingError("nope")

    def succeeds(p, c):
        return p, c

    out = try_else(fails, succeeds)(p, alloc)
    assert out[0] is p


def test_repeat_stops_when_a_round_moves_nothing():
    # simplify refuses nothing: a round that leaves the procedure (and there
    # is no cursor) as it was ends the repeat
    from repro.blas import LEVEL1_KERNELS
    from repro.primitives import simplify
    from repro.stdlib import nav

    calls = [0]

    def counted(p):
        calls[0] += 1
        if calls[0] > 100:
            raise RuntimeError("repeat did not stop")
        return simplify(p)

    saxpy = LEVEL1_KERNELS["saxpy"]
    assert str(repeat(counted)(saxpy)) == str(saxpy)
    assert calls[0] <= 2

    # a navigation-only round moves the cursor, not the procedure: it goes on
    # until the navigation is refused (a top-level statement has no parent)
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        for j in seq(0, 4):\n"
        "            x[i] = 1.0\n"
    )
    q, top = repeat(nav(lambda c: c.parent()))(p, p.find("x[_] = _"))
    assert q is p and top.path() == p.find_loop("i").path()


def test_filter_and_is_invalid(gemv):
    from repro.cursors import InvalidCursor
    cursors = [gemv.find_loop("i"), InvalidCursor(gemv), gemv.find_loop("j")]
    kept = filter_c(~is_invalid)(gemv, cursors)
    assert len(kept) == 2


def test_lrn_traversal(gemv):
    kinds = [type(c).__name__ for c in lrn(gemv.find_loop("i"))]
    assert kinds == ["ReduceCursor", "ForCursor"]


def test_infer_bounds(gemv):
    io = divide_loop(gemv, "j", 8, ["jo", "ji"], perfect=True)
    b = infer_bounds(io, io.find_loop("ji"), "x")
    from repro.ir import expr_str
    assert expr_str(b.lo[0]) == "8 * jo"
    assert "8 * jo + 8" in expr_str(b.hi[0]) or "8 + 8 * jo" in expr_str(b.hi[0])


def test_get_inner_loop(gemv):
    assert get_inner_loop(gemv, gemv.find_loop("i")).name() == "j"


def test_round_loop(axpy):
    p = round_loop(axpy, "i", 8)
    assert check_equiv(axpy, p, {"n": 13})
    assert "if" in str(p)


def test_unroll_and_jam(gemv):
    p = unroll_and_jam(gemv, "i", 2)
    assert check_equiv(gemv, p, {"M": 8, "N": 8})


def test_auto_stage_mem(gemv):
    p, (alloc, load, block, store) = auto_stage_mem(gemv, gemv.find_loop("j"), "x", "x_reg")
    assert alloc.is_valid()
    assert check_equiv(gemv, p, {"M": 8, "N": 8})


def test_vectorize_axpy_and_dot(axpy, dot):
    instrs = AVX2.get_instructions("f32")
    v = vectorize(axpy, "i", 8, "f32", AVX2.mem_type, instrs, rules=[fma_rule])
    assert "avx2_f32_fma" in str(v)
    assert check_equiv(axpy, v, {"n": 37})

    vd = vectorize(dot, "i", 8, "f32", AVX2.mem_type, instrs, rules=[fma_rule])
    assert "avx2_f32_fma" in str(vd)
    assert check_equiv(dot, vd, {"n": 53})


def test_vectorize_without_fma_rule(axpy):
    instrs = AVX2.get_instructions("f32")
    v = vectorize(axpy, "i", 8, "f32", AVX2.mem_type, instrs, rules=[])
    # staging without the FMA rule produces an explicit multiply (Figure 4b)
    assert "avx2_f32_mul" in str(v) or "avx2_f32_add" in str(v)
    assert check_equiv(axpy, v, {"n": 24})


def test_cse(gemv):
    p = unroll_and_jam(gemv, "i", 2)
    q = CSE(p, p.find_loop("j").body(), "f32")
    assert check_equiv(gemv, q, {"M": 8, "N": 8})


def test_tilenD_on_a_three_deep_nest():
    # Section 3.3: divide every loop, then lift each block loop above the
    # point loops of the levels before it
    mm = proc_from_source(
        "def mm(A: f32[8, 12] @ DRAM, B: f32[12, 16] @ DRAM, C: f32[8, 16] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        for j in seq(0, 16):\n"
        "            for k in seq(0, 12):\n"
        "                C[i, j] += A[i, k] * B[k, j]\n"
    )
    t = tilenD(mm, ["i", "j", "k"], [["io", "ii"], ["jo", "ji"], ["ko", "ki"]], [4, 8, 6])
    assert [loop.name() for loop in loop_nest(t, t.find_loop("io"))] == ["io", "jo", "ko", "ii", "ji", "ki"]
    assert check_equiv(mm, t, {})
    with pytest.raises(SchedulingError):  # perfect tiles only: 12 % 5
        tilenD(mm, ["i", "j", "k"], [["io", "ii"], ["jo", "ji"], ["ko", "ki"]], [4, 8, 5])


def _two_nests(first: str):
    """gemv behind an unrelated loop that already carries the name ``first``."""
    return proc_from_source(
        "def k(M: size, N: size, z: f32[8] @ DRAM, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):\n"
        f"    for {first} in seq(0, 8):\n"
        f"        z[{first}] = 0.0\n"
        "    for i in seq(0, M):\n"
        "        for j in seq(0, N):\n"
        "            y[i] += A[i, j] * x[j]\n"
    )


@pytest.mark.parametrize(
    "taken, op",
    [
        ("ii", lambda p, i: unroll_and_jam(p, i, 2)),
        ("i_r_o", lambda p, i: round_loop(p, i, 8)),
        ("jo", lambda p, i: tile_loops_bottom_up(p, i, [4, 4])),
        ("j", lambda p, i: opt_skinny(p, i, 8, AVX2.mem_type, "f32", AVX2)),
    ],
)
def test_library_ops_follow_the_loop_they_made_not_its_name(taken, op):
    # each op used to re-find "its" new loop by name and took the unrelated
    # one ahead of the target: unroll_and_jam unrolled it and left the target
    # un-jammed, silently; round_loop / tile_loops_bottom_up died on it
    p = _two_nests(taken)
    out = op(p, p.find_loop("i"))
    assert str(out.body()[0]) == str(p.body()[0])  # the unrelated loop is untouched
    assert check_equiv(p, out, {"M": 13, "N": 19})
    if taken == "ii":  # ... and the target is jammed: two rows in the j loop
        assert len(out.find_loop("j").body()) == 2
    if taken == "j":  # ... and the math loop, not the unrelated one, is vectorised
        assert "avx2_f32_fma" in str(out)


def _refusals(recorder):
    assert not [e for e in recorder.trace.entries if e.outcome == "failed"]  # none is silent
    return [e for e in recorder.trace.entries if e.kind == "recovered"]


def test_every_recovery_spelling_leaves_a_recovered_entry(axpy, gemv):
    # repeat: the round that is refused is rolled back and recorded
    nested = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        for j in seq(0, 4):\n"
        "            t: f32 @ DRAM\n"
        "            t = x[i]\n"
        "            x[i] = t + 1.0\n"
    )
    with TraceRecorder() as rec:
        repeat(lift_alloc)(nested, nested.find("t: _"))
    assert [e.primitive for e in rec.trace.applied()] == ["lift_alloc", "lift_alloc"]
    (stop,) = _refusals(rec)
    assert stop.primitive == "lift_alloc" and stop.detail["note"] == "repeat"

    # try_else: the refused first choice is recorded, the fallback applied
    with TraceRecorder() as rec:
        out = try_else(lift(unroll_loop), lift(lambda p, c: divide_loop(p, c, 4, ["io", "ii"])))(axpy, "i")[0]
    assert out.find_loop("io") and [e.primitive for e in rec.trace.applied()] == ["divide_loop"]
    (refusal,) = _refusals(rec)
    assert refusal.primitive == "unroll_loop" and refusal.detail["note"] == "try_else"

    # hoist_stmt = repeat(try_else(...)): the first round falls back to
    # reordering, the second fissions the statement out, the third ends it
    inv = proc_from_source(
        "def g(n: size, x: f32[n] @ DRAM, c: f32[1] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        c[0] = 2.0\n"
    )
    with TraceRecorder() as rec:
        hoisted = hoist_stmt(inv, inv.find("c[_] = _"))[0]
    assert str(hoisted.body()[0]).startswith("c[0] = 2.0") and check_equiv(inv, hoisted, {"n": 5})
    assert [e.primitive for e in rec.trace.applied()] == ["reorder_stmts", "fission", "remove_loop"]
    assert [(e.detail["note"], e.primitive) for e in _refusals(rec)] == [
        ("try_else", "fission"),
        ("repeat", "reorder_stmts"),
    ]

    # general_tile2D: perfect tiling refused (13 % 8), guarded tiling applied
    with TraceRecorder() as rec:
        general_tile2D(gemv.partial_eval(M=13, N=16), "i", "j", ["io", "ii"], ["jo", "ji"], 8, 8)
    (fallback,) = _refusals(rec)
    assert fallback.primitive == "divide_loop" and "general_tile2D" in fallback.detail["note"]
    assert {e.kwargs.get("tail") for e in rec.trace.applied() if e.primitive == "divide_loop"} == {"guard"}
