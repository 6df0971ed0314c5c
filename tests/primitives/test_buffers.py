"""Buffer-transformation primitive tests."""
from __future__ import annotations

import pytest

from repro import (
    SchedulingError, bind_expr, delete_buffer, divide_dim, expand_dim, lift_alloc,
    mult_dim, rearrange_dim, resize_dim, reuse_buffer, set_memory, simplify, sink_alloc,
    stage_mem, stage_reduction, unroll_buffer,
)
from repro.interp import check_equiv
from repro import proc_from_source


@pytest.fixture
def scratch():
    return proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        t: f32 @ DRAM\n"
        "        t = 2.0 * x[i]\n"
        "        y[i] = t + 1.0\n"
    )


def test_lift_alloc_and_expand_dim(scratch):
    p = expand_dim(scratch, "t", "n", "i")
    p = lift_alloc(p, "t")
    # the allocation now sits at the procedure top level, sized [n]
    assert "t: f32[n]" in str(p)
    assert check_equiv(scratch, p, {"n": 9})


def test_sink_alloc(scratch):
    p = expand_dim(scratch, "t", "n", "i")
    p = lift_alloc(p, "t")
    p2 = sink_alloc(p, "t")
    assert check_equiv(scratch, p2, {"n": 5})


def test_delete_buffer_requires_dead(scratch):
    with pytest.raises(SchedulingError):
        delete_buffer(scratch, "t")


def test_bind_expr(gemv):
    mul = gemv.find("A[_] * x[_]")
    p = bind_expr(gemv, mul, "prod")
    assert "prod: f32" in str(p) or "prod:" in str(p)
    assert check_equiv(gemv, p, {"M": 8, "N": 8})


def test_stage_mem_window(gemv):
    j_loop = gemv.find_loop("j")
    p = stage_mem(gemv, j_loop.as_block(), "x[0:N]", "x_tile")
    assert "x_tile: f32[N]" in str(p)
    assert check_equiv(gemv, p, {"M": 8, "N": 8})


def test_stage_mem_accum(dot):
    loop = dot.find_loop("i")
    p = stage_mem(dot, loop.as_block(), "result[0:1]", "acc", accum=True)
    assert check_equiv(dot, p, {"n": 13})


def test_stage_reduction(dot):
    loop = dot.find_loop("i")
    red = dot.find("result[_] += _")
    p = stage_reduction(dot, loop, red, "acc_v", 8)
    p = simplify(p)
    assert "acc_v: f32[8]" in str(p)
    assert check_equiv(dot, p, {"n": 21})


def test_stage_reduction_into_a_window_takes_its_element_type():
    p = proc_from_source(
        "def f(n: size, x: f64[n] @ DRAM, y: f64[4] @ DRAM):\n"
        "    w = y[0:4]\n"
        "    for i in seq(0, n):\n"
        "        w[1] += x[i]\n"
    )
    q = stage_reduction(p, "i", p.find("w[_] += _"), "acc", 8)
    assert "acc: f64[8]" in str(q)
    assert check_equiv(p, q, {"n": 21})
    # a window aliases its buffer: it is not staged
    with pytest.raises(SchedulingError, match="could not find buffer 'w'"):
        stage_mem(p, p.find_loop("i").as_block(), "w[1]", "tmp")


def test_stage_reduction_is_per_cell():
    """The rows of a jammed reduction are different cells of one buffer: each
    stages into its own partial sums; a cell the loop touches twice, or an
    access that may alias it, is still refused."""
    jammed = proc_from_source(
        "def f(n: size, m: size, A: f32[2 * m, n] @ DRAM, x: f32[n] @ DRAM, y: f32[2 * m] @ DRAM):\n"
        "    for io in seq(0, m):\n"
        "        for j in seq(0, n):\n"
        "            y[2 * io] += A[2 * io, j] * x[j]\n"
        "            y[2 * io + 1] += A[2 * io + 1, j] * x[j]\n"
    )
    p = stage_reduction(jammed, "j", jammed.find("y[_] += _ #0"), "acc0", 8)
    p = stage_reduction(p, "j", p.find("y[_] += _ #0"), "acc1", 8)
    assert "acc0[j % 8] +=" in str(p) and "acc1[j % 8] +=" in str(p)
    assert check_equiv(jammed, p, {"n": 13, "m": 3})

    for second in ("y[0] += x[j]", "x[j] = y[k - 1]"):  # the same cell again; a cell that may be it
        clash = proc_from_source(
            "def g(n: size, k: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
            "    assert k < n\n"
            "    for j in seq(0, n):\n"
            "        y[0] += x[j]\n"
            f"        {second}\n"
        )
        with pytest.raises(SchedulingError, match="accessed more than once"):
            stage_reduction(clash, "j", clash.find("y[_] += _ #0"), "acc", 8)


def test_dimension_surgery(copy2d):
    # expand/rearrange/divide/mult on a staged buffer
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    buf: f32[n] @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        buf[i] = x[i]\n"
        "    for i in seq(0, n):\n"
        "        y[i] = buf[i]\n"
    )
    q = divide_dim(p, "buf", 0, 8)
    assert check_equiv(p, q, {"n": 16})
    r = rearrange_dim(q, "buf", [1, 0])
    assert check_equiv(p, r, {"n": 16})
    s = mult_dim(r, "buf", 1, 0)
    assert check_equiv(p, s, {"n": 16})


def test_resize_dim_and_reuse_buffer():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    a: f32[n] @ DRAM\n"
        "    b: f32[n] @ DRAM\n"
        "    for i in seq(0, n):\n"
        "        a[i] = x[i] * 2.0\n"
        "    for i in seq(0, n):\n"
        "        b[i] = a[i] + 1.0\n"
        "    for i in seq(0, n):\n"
        "        y[i] = b[i]\n"
    )
    q = reuse_buffer(p, "a", "b")
    assert check_equiv(p, q, {"n": 7})


def test_unroll_buffer():
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    t: f32[2] @ DRAM\n"
        "    t[0] = x[0]\n"
        "    t[1] = x[1]\n"
        "    y[0] = t[0]\n"
        "    y[1] = t[1]\n"
    )
    q = unroll_buffer(p, "t", 0)
    assert "t_0" in str(q) and "t_1" in str(q)
    assert check_equiv(p, q, {})
