"""What the C emitter refuses, by message, and the rarer forms it lowers:
bool and i32 arguments, negation, stride and comparison operands of integer
division, infinite constants, ``pass``, instruction globals, and a name that
is not a C identifier.  Refusals are what the native ladder falls back on, so
each is pinned; lowered forms run on all three engines."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro import divide_loop, new_config, proc_from_source
from repro.backend.codegen import compile_to_c, emit_unit
from repro.core.procedure import Procedure
from repro.errors import CodegenError
from repro.frontend.parser import parse_expr_fragment
from repro.interp import make_random_args, run_proc
from repro.ir.build import with_fields
from repro.ir.externs import register_extern
from repro.ir.types import index_t
from repro.machines import AVX2

CFG = new_config("cgen_cfg", [("k", index_t)])
VEC = AVX2.mem_type
ENV = {"VEC": VEC, "cgen_cfg": CFG}
F = "def f(x: f32[8] @ DRAM):\n"

register_extern("cgen_square", 1, lambda v: v * v, "", cost=1.0)


@pytest.mark.parametrize("body, message", [
    ("    v: f32[8] @ VEC\n    x[0] = v\n", "whole vector register read in a value position"),
    ("    v: f32[8] @ VEC\n    v = x[0]\n", "whole vector register written without a lane index"),
    ("    t: f32 @ DRAM\n    x[0] = t[0]\n", "indexed read of non-tensor t"),
    ("    t: f32 @ DRAM\n    t[0] = 1.0\n", "indexed write to non-tensor t"),
    ("    t: f32 @ DRAM\n    w = t[0:1]\n", "cannot bind a window over t"),
    ("    x[0] = stride(x, 3)\n", "stride\\(\\) of non-tensor x"),
    ("    cgen_cfg.k = 2\n", "configuration state \\(cgen_cfg.k\\) is not supported by the C backend"),
    ("    x[0] = cgen_square(x[1])\n", "extern 'cgen_square' has no C template"),
    ("    for i in seq(0, cgen_cfg.k):\n        x[i] = 1.0\n",
     "configuration state \\(cgen_cfg.k\\) is not supported by the C backend"),
])
def test_the_emitter_refuses(body, message):
    p = proc_from_source(F + body, ENV)
    with pytest.raises(CodegenError, match=message):
        emit_unit(p)


@pytest.mark.parametrize("parsed, body, declared", [
    ("f32[8, 2]", "x[0] = v[0, 1]", ["8"]),
    ("f32[2]", "x[0] = v[1]", ["2", "8"]),
])
def test_the_emitter_refuses_a_register_accessed_with_the_wrong_rank(redeclare, parsed, body, declared):
    p = redeclare(proc_from_source(F + f"    v: {parsed} @ VEC\n    {body}\n", ENV), "v", *declared)
    with pytest.raises(CodegenError, match="vector register v accessed with wrong rank"):
        emit_unit(p)


def test_the_emitter_refuses_a_window_in_a_value_position():
    # the parser refuses one; a fragment, where a window may stand, can
    # still put one there
    root = proc_from_source(F + "    x[0] = 1.0\n")._root
    window = parse_expr_fragment("x[0:2]", root)
    p = Procedure(with_fields(root, body=[with_fields(root.body[0], rhs=window)]))
    with pytest.raises(CodegenError, match="window expression in a value position"):
        emit_unit(p)


def _intrinsic(src, c_instr, c_global=""):
    """An instruction whose template is real C (as ``machines/vector.py``
    makes them), so the emitter writes the template instead of the body."""
    from repro.core.procedure import Procedure
    from repro.ir.nodes import InstrInfo

    return Procedure(proc_from_source(src, ENV)._root, instr_info=InstrInfo(c_instr, c_global, 1.0, True))


vtouch = _intrinsic("def vtouch(r: [f32][8] @ VEC):\n    r[0] = 1.0\n", "{r_data}[0] = 1.0f;")


@pytest.mark.parametrize("alloc, window, message", [
    ("f32[2, 8]", "v[1, 0:4]", "partial vector-register window in a call"),
    ("f32[2, 8]", "v[0:2, 0:8]", "partial vector-register window in a call"),
])
def test_an_instruction_operand_must_be_one_whole_register(rewindow, alloc, window, message):
    # a window of another rank than the operand's is built past the parser
    p = proc_from_source(F + f"    v: {alloc} @ VEC\n    vtouch(v[0, 0:8])\n", {**ENV, "vtouch": vtouch})
    with pytest.raises(CodegenError, match=message):
        emit_unit(rewindow(p, window))


@pytest.mark.parametrize("parsed, window, declared", [
    ("f32[1, 8]", "v[0, 0:8]", ["8"]),
    ("f32[2, 2, 8]", "v[0, 1, 0:8]", ["2", "8"]),
])
def test_an_instruction_operand_windowed_with_the_wrong_rank_is_refused(redeclare, parsed, window, declared):
    p = proc_from_source(F + f"    v: {parsed} @ VEC\n    vtouch({window})\n", {**ENV, "vtouch": vtouch})
    with pytest.raises(CodegenError, match="vector register v windowed with wrong rank"):
        emit_unit(redeclare(p, "v", *declared))


def test_an_inlined_call_refuses_a_window_of_the_wrong_rank(rewindow):
    # the parser refuses the 2-D window, so it is passed past the parser
    for body, window, message in (
        ("r[0] = 1.0", "A[0:2, 0:8]", "window rank does not match the callee access"),
        ("r[0] = stride(r, 1)", "A[0, 0:8]", "stride dimension outside the window rank"),
    ):
        touch = proc_from_source(f"def touch(r: [f32][8] @ DRAM):\n    {body}\n")
        p = proc_from_source("def f(A: f32[8, 8] @ DRAM):\n    touch(A[1, 0:8])\n", {"touch": touch})
        with pytest.raises(CodegenError, match=f"cannot inline call of touch: {message}"):
            emit_unit(rewindow(p, window))


def test_a_callee_writing_a_scalar_argument_is_not_inlined():
    # a scalar argument is passed by value: inlining the write would make the
    # caller see it, unlike the interpreter and the NumPy engine
    setter = proc_from_source("def setter(a: f32, x: [f32][1] @ DRAM):\n    a = x[0]\n")
    p = proc_from_source(
        "def g(x: f32[4] @ DRAM):\n"
        "    t: f32 @ DRAM\n"
        "    setter(t, x[2:3])\n"
        "    x[0] = t\n",
        {"setter": setter},
    )
    with pytest.raises(CodegenError, match="cannot inline call of setter: callee writes a scalar argument"):
        emit_unit(p)
    args = {"x": np.arange(4, dtype=np.float32) + 1}
    assert run_proc(p, backend="differential", **args)["x"].tolist() == [0.0, 2.0, 3.0, 4.0]


def test_bool_and_i32_arguments_negation_and_integer_division_lower_to_c():
    p = proc_from_source(
        "def h(n: size, b: bool, c: i32, x: f32[n] @ DRAM):\n"
        "    assert n >= 4\n"
        "    for i in seq(0, n):\n"
        "        if b == True:\n"
        "            x[i] = x[i] + (-c) / 2 + (i < 2) / 1 + stride(x, 0) / 1\n"
        "        else:\n"
        "            pass\n"
    )
    src = emit_unit(p).source
    assert "bool b" in src and "int32_t c" in src and "(-c)" in src
    args = make_random_args(p, {"n": 9, "b": 1}, seed=2)
    args["c"] = 7
    out = run_proc(p, backend="differential", **args)
    assert out["x"] is not None


@pytest.mark.parametrize("value, c_text", [(math.inf, "INFINITY"), (-math.inf, "(-INFINITY)"), (math.nan, "NAN")])
def test_infinite_and_nan_constants(value, c_text):
    p = proc_from_source(F + "    x[0] = BIG\n", {"BIG": value})
    assert f"x[(0) * (x_s0)] = {c_text};" in emit_unit(p).source


def test_a_name_that_is_not_a_c_identifier_is_prefixed():
    p = proc_from_source("def k(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 2.0\n")
    q = divide_loop(p, "i", 4, ["0o", "0i"], tail="guard")
    assert "for (int64_t _0o = 0;" in emit_unit(q).source


def test_an_instruction_global_is_emitted_once_and_a_bad_template_refused():
    one = _intrinsic("def cgen_set(dst: [f32][1] @ DRAM):\n    dst[0] = 1.0\n",
                     "{dst_data} = cgen_one();", "static float cgen_one(void) { return 1.0f; }")
    p = proc_from_source(F + "    cgen_set(x[0:1])\n    cgen_set(x[1:2])\n", {"cgen_set": one})
    src = emit_unit(p).source
    assert src.count("static float cgen_one(void)") == 1 and src.count("= cgen_one();") == 2
    assert compile_to_c(p).count("static float cgen_one(void)") == 1
    bad = _intrinsic("def cgen_bad(dst: [f32][1] @ DRAM):\n    dst[0] = 1.0\n", "{nope} = 1.0f;")
    q = proc_from_source(F + "    cgen_bad(x[0:1])\n", {"cgen_bad": bad})
    with pytest.raises(CodegenError, match="instruction template of cgen_bad references unknown key 'nope'"):
        emit_unit(q)


def test_rarer_register_shapes_whole_buffer_operands_and_inlined_size_actuals():
    # a register array indexed by its outer dimension, a register whose shape
    # is not constant (a stack array instead), an intrinsic fed a whole
    # buffer, an extern operand of a division, and a computed size actual
    regs = proc_from_source(
        "def r(n: size, x: f32[8] @ DRAM):\n"
        "    v: f32[2, 8] @ VEC\n"
        "    w: f32[n, 8] @ VEC\n"
        "    v[1, 3] = x[0]\n"
        "    x[1] = v[1, 3] + fabs(x[2]) / 2.0\n",
        ENV,
    )
    src = emit_unit(regs).source
    assert "__m256 v[2]" in src and "v[1][3] = x[(0) * (x_s0)];" in src
    assert "float *w = (float *)calloc((size_t)((n) * (8)), sizeof(float));" in src
    assert "(fabs(x[(2) * (x_s0)]) / 2.0)" in src
    one = _intrinsic("def cgen_set1(dst: [f32][1] @ DRAM):\n    dst[0] = 1.0\n", "{dst_data} = 1.0f;")
    whole = proc_from_source("def w(y: f32[1] @ DRAM):\n    cgen_set1(y)\n", {"cgen_set1": one})
    assert "y[0] = 1.0f;" in emit_unit(whole).source
    g = proc_from_source("def g(k: size, z: [f32][k] @ DRAM):\n    for i in seq(0, k):\n        z[i] = 2.0\n")
    h = proc_from_source("def h(n: size, x: f32[n] @ DRAM):\n    assert n >= 2\n    g(n - 1, x[0:n - 1])\n", {"g": g})
    assert "const __typeof__((n - 1)) k = (n - 1);" in emit_unit(h).source
    run_proc(h, backend="differential", **make_random_args(h, {"n": 6}))


def test_an_inline_chain_deeper_than_the_limit_is_refused():
    callee = proc_from_source("def c0(x: [f32][1] @ DRAM):\n    x[0] = 1.0\n")
    for k in range(1, 40):
        callee = proc_from_source(f"def c{k}(x: [f32][1] @ DRAM):\n    c{k - 1}(x)\n", {f"c{k - 1}": callee})
    with pytest.raises(CodegenError, match="call chain through c[0-9]+ is too deep to inline"):
        emit_unit(callee)
