"""``replace``'s unifier, case by case: each row pairs an instruction body
with a block of object code and pins either the call the unifier builds or
the exact reason it refuses (``replace`` itself reports every refusal as "could
not unify", so the reasons are read from the unifier)."""
from __future__ import annotations

import pytest

from repro import SchedulingError, new_config, proc_from_source, replace, replace_all
from repro.interp import check_equiv
from repro.ir.types import index_t
from repro.ir.printing import block_str
from repro.machines import AVX2
from repro.primitives._base import proc_fact_env
from repro.primitives.unify import UnificationError, _Unifier

CFG = new_config("unify_cfg", [("k", index_t)])
ENV = {"VEC": AVX2.mem_type, "unify_cfg": CFG}


def _unify(instr_src: str, caller_src: str):
    """The call the unifier builds for ``caller``'s whole body, or raises."""
    instr = proc_from_source(instr_src, ENV)
    caller = proc_from_source(caller_src, {**ENV, instr.name(): instr})
    uni = _Unifier(instr, proc_fact_env(caller), caller_root=caller._root)
    uni.unify_block(instr._root.body, caller._root.body)
    return block_str([uni.build_call()])


COPY = (
    "def copy8(x: [f32][8] @ DRAM, y: [f32][8] @ DRAM):\n"
    "    for i in seq(0, 8):\n"
    "        y[i] = {rhs}\n"
)
CALLER = (
    "def f(n: size, a: f32, A: f32[2, 16] @ DRAM, b: f32[16] @ DRAM, c: f32[16] @ DRAM):\n"
    "    assert n == 8\n"
    "    for j in seq(0, 8):\n"
    "        {stmt}\n"
)


@pytest.mark.parametrize("rhs, stmt, message", [
    # tensor arguments: one buffer, consistent points and offsets
    ("x[i] + x[i]", "c[j] = b[j] + A[0, j]", "argument x bound to two different buffers"),
    ("x[i] + x[i]", "c[j] = b[j] + b[j + 1]", "inconsistent window offsets for argument x"),
    ("x[i] + x[i]", "c[j] = A[0, j] + A[1, j]", "inconsistent point offsets for argument x"),
    ("x[i]", "c[j] = A[j, 0]", "leading buffer dimensions depend on the matched loop iterators"),
    ("x[i]", "c[j] = b[2 * j]", "window offset depends on the matched loop iterators"),
    ("x[i]", "c[j] = a", "expected a buffer read in the target block"),
    # expressions
    ("x[i] * 2.0", "c[j] = b[j] + 2.0", r"operator mismatch: expected '\*'"),
    ("-x[i]", "c[j] = b[j]", "unary-minus mismatch"),
    ("fabs(x[i])", "c[j] = fmax(b[j], 0.0)", "extern call mismatch: expected fabs"),
    ("x[i] * 2.0", "c[j] = b[j] * 3.0", r"constant mismatch: 2\.0"),
])
def test_the_unifier_refuses_with_its_reason(rhs, stmt, message):
    with pytest.raises(UnificationError, match=message):
        _unify(COPY.format(rhs=rhs), CALLER.format(stmt=stmt))


@pytest.mark.parametrize("rhs, stmt, call", [
    ("x[i] + x[i]", "c[j] = b[j] + b[j]", "copy8(b[0:8], c[0:8])"),
    ("-x[i]", "c[j] = -b[j]", "copy8(b[0:8], c[0:8])"),
    ("fabs(x[i])", "c[j] = fabs(b[j + 8])", "copy8(b[8:16], c[0:8])"),
])
def test_the_unifier_binds_each_argument_once(rhs, stmt, call):
    assert str(_unify(COPY.format(rhs=rhs), CALLER.format(stmt=stmt))) == call


SCALE = (
    "def scale8(a: f32, x: [f32][8] @ DRAM):\n"
    "    for i in seq(0, 8):\n"
    "        x[i] = {rhs}\n"
)


@pytest.mark.parametrize("rhs, stmt, message", [
    ("a * x[i]", "c[j] = b[j] * c[j]", "argument a would capture a loop iterator"),
    ("a * x[i] + a", "c[j] = a * c[j] + 2.0", "inconsistent binding for argument a"),
    ("x[i]", "c[j] = c[j]", "argument a was never bound"),
])
def test_a_scalar_argument_binds_one_expression_outside_the_loops(rhs, stmt, message):
    with pytest.raises(UnificationError, match=message):
        _unify(SCALE.format(rhs=rhs), CALLER.format(stmt=stmt))


def test_a_scalar_argument_bound_twice_to_equal_expressions_is_one_binding():
    call = _unify(SCALE.format(rhs="a * x[i] + a"), CALLER.format(stmt="c[j] = a * c[j] + a"))
    assert str(call) == "scale8(a, c[0:8])"


def test_an_unused_tensor_argument_is_never_bound():
    with pytest.raises(UnificationError, match="tensor argument y was never bound"):
        _unify(
            "def z(x: [f32][8] @ DRAM, y: [f32][8] @ DRAM):\n    for i in seq(0, 8):\n        x[i] = 0.0\n",
            CALLER.format(stmt="c[j] = 0.0"),
        )


def test_a_vector_register_argument_refuses_a_dram_buffer():
    with pytest.raises(UnificationError, match="memory mismatch: v expects VEC_AVX2, got DRAM"):
        _unify(
            "def ld(v: [f32][8] @ VEC, x: [f32][8] @ DRAM):\n    for i in seq(0, 8):\n        v[i] = x[i]\n",
            CALLER.format(stmt="c[j] = b[j]"),
        )


ITER = (
    "def guarded(x: [f32][8] @ DRAM):\n"
    "    for i in seq(0, 8):\n"
    "        if i < 4:\n"
    "            x[i] = 0.0\n"
)


@pytest.mark.parametrize("cond", ["j < 4", "j + 0 < 4", "j < 2 + 2"])
def test_an_iterator_in_a_condition_matches_the_mapped_iterator(cond):
    src = CALLER.format(stmt=f"if {cond}:\n            c[j] = 0.0")
    assert str(_unify(ITER, src)) == "guarded(c[0:8])"


def test_an_iterator_in_a_condition_refuses_another_value():
    src = CALLER.format(stmt="if n < 4:\n            c[j] = 0.0")
    with pytest.raises(UnificationError, match="loop iterator mismatch"):
        _unify(ITER, src)


ELSE = (
    "def both(x: [f32][8] @ DRAM):\n"
    "    for i in seq(0, 8):\n"
    "        if i < 4:\n"
    "            x[i] = 0.0\n"
    "        else:\n"
    "            {orelse}\n"
)


@pytest.mark.parametrize("orelse, caller_orelse, message", [
    ("x[i] = 1.0", "c[j] = 1.0\n            c[j] = 1.0", "statement count mismatch"),
    ("x[i] = 1.0", "c[j] += 1.0", "assignment/reduction kind mismatch"),
    ("pass", "c[j] = 1.0", "expected pass"),
    ("x[i] = 1.0", "for k in seq(0, 1):\n                c[j] = 1.0", "assignment/reduction kind mismatch"),
    ("for k in seq(0, 1):\n                x[i] = 1.0", "c[j] = 1.0", "expected a loop"),
    ("if i < 6:\n                x[i] = 1.0", "c[j] = 1.0", "expected an if statement"),
    ("unify_cfg.k = 3", "c[j] = 1.0", "configuration write mismatch"),
])
def test_an_else_branch_is_unified_statement_by_statement(orelse, caller_orelse, message):
    src = CALLER.format(stmt=f"if j < 4:\n            c[j] = 0.0\n        else:\n            {caller_orelse}")
    with pytest.raises(UnificationError, match=message):
        _unify(ELSE.format(orelse=orelse), src)


def test_an_else_branch_that_matches_unifies():
    src = CALLER.format(stmt="if j < 4:\n            c[j] = 0.0\n        else:\n            unify_cfg.k = 3")
    assert str(_unify(ELSE.format(orelse="unify_cfg.k = 3"), src)) == "both(c[0:8])"


def test_a_config_read_must_read_the_same_field():
    instr = COPY.format(rhs="x[i]").replace("for i in seq(0, 8)", "for i in seq(0, unify_cfg.k)")
    ok = CALLER.format(stmt="c[j] = b[j]").replace("for j in seq(0, 8)", "for j in seq(0, unify_cfg.k)")
    assert str(_unify(instr, ok)) == "copy8(b[0:8], c[0:8])"
    with pytest.raises(UnificationError, match="configuration read mismatch"):
        _unify(instr, CALLER.format(stmt="c[j] = b[j]"))


def test_a_scalar_output_argument_binds_a_scalar_buffer_only():
    instr = "def put(a: f32, x: [f32][8] @ DRAM):\n    a = x[0]\n"
    caller = "def f(b: f32[8] @ DRAM, c: f32[2] @ DRAM):\n    c[0] = b[0]\n"
    with pytest.raises(UnificationError, match="scalar output argument bound to an indexed access"):
        _unify(instr, caller)


def test_an_instruction_that_calls_a_procedure():
    setk = proc_from_source("def setk(m: size):\n    unify_cfg.k = m\n", ENV)
    other = proc_from_source("def other(m: size):\n    unify_cfg.k = m\n", ENV)
    touch = proc_from_source("def touch(x: [f32][8] @ DRAM):\n    x[0] = 1.0\n")
    ENV.update(setk=setk, other=other, touch=touch)
    try:
        outer = "def outer(m: size):\n    setk(m)\n"
        caller = "def f(b: f32[8] @ DRAM):\n    {call}\n"
        assert _unify(outer, caller.format(call="setk(8)")) == "outer(8)"
        with pytest.raises(UnificationError, match="call mismatch"):
            _unify(outer, caller.format(call="other(8)"))
        with pytest.raises(UnificationError, match="tensor argument x read without indices"):
            _unify("def whole(x: [f32][8] @ DRAM):\n    touch(x)\n", caller.format(call="touch(b)"))
    finally:
        del ENV["setk"], ENV["other"], ENV["touch"]


def test_an_instruction_with_an_allocation_is_refused():
    instr = "def tmp(x: [f32][8] @ DRAM):\n    t: f32 @ DRAM\n    x[0] = 1.0\n"
    caller = "def f(b: f32[8] @ DRAM):\n    t: f32 @ DRAM\n    b[0] = 1.0\n"
    with pytest.raises(UnificationError, match="instructions with internal allocations cannot be unified"):
        _unify(instr, caller)


def test_an_instruction_writing_its_own_buffer_is_refused():
    instr = "def local(x: [f32][8] @ DRAM):\n    for i in seq(0, 8):\n        x[i] = 1.0\n"
    caller = "def f(b: f32[8] @ DRAM):\n    t: f32[8] @ DRAM\n    for j in seq(0, 8):\n        b[j] = 1.0\n"
    assert str(_unify(instr, caller.replace("    t: f32[8] @ DRAM\n", ""))) == "local(b[0:8])"


def test_replace_takes_the_first_statements_of_a_longer_block():
    p = proc_from_source(CALLER.format(stmt="c[j] = b[j]\n    for j in seq(0, 8):\n        b[j] = c[j]"))
    instr = proc_from_source(COPY.format(rhs="x[i]"))
    q = replace(p, p.body(), instr)
    assert "copy8(b[0:8], c[0:8])\n    for j in seq(0, 8):" in str(q)
    assert check_equiv(p, q, {"n": 8})
    with pytest.raises(SchedulingError, match="replace: could not unify the block with instruction 'copy8'"):
        replace(p, p.find_loop("j #1"), proc_from_source(COPY.format(rhs="x[i] * 2.0")))


def test_replace_all_takes_a_single_instruction():
    p = proc_from_source(CALLER.format(stmt="c[j] = b[j]"))
    assert "copy8(b[0:8], c[0:8])" in str(replace_all(p, proc_from_source(COPY.format(rhs="x[i]"))))


def test_a_window_passed_on_to_a_call_does_not_unify():
    touch = proc_from_source("def touch(x: [f32][8] @ DRAM):\n    x[0] = 1.0\n")
    ENV["touch"] = touch
    try:
        with pytest.raises(UnificationError, match="expression mismatch"):
            _unify("def part(x: [f32][8] @ DRAM):\n    touch(x[0:8])\n",
                   "def f(b: f32[8] @ DRAM):\n    touch(b[0:8])\n")
    finally:
        del ENV["touch"]


def test_a_loop_bound_binds_a_size_argument_used_in_an_index():
    instr = "def shift(m: size, x: [f32][16] @ DRAM):\n    for i in seq(0, m):\n        x[i] = x[i + m]\n"
    caller = "def f(c: f32[16] @ DRAM):\n    for j in seq(0, 8):\n        c[j] = c[j + 8]\n"
    assert _unify(instr, caller) == "shift(8, c[0:16])"


def test_an_access_of_lower_rank_than_the_argument_is_refused():
    instr = "def two(x: [f32][2, 8] @ DRAM):\n    for i in seq(0, 8):\n        x[0, i] = 0.0\n"
    with pytest.raises(UnificationError, match="access to c has lower rank than instruction argument x"):
        _unify(instr, CALLER.format(stmt="c[j] = 0.0"))


def test_a_scalar_output_argument_binds_a_scalar_buffer():
    instr = "def put(a: f32, x: [f32][8] @ DRAM):\n    a = x[0]\n"
    caller = "def f(b: f32[8] @ DRAM):\n    t: f32 @ DRAM\n    t = b[0]\n"
    instr_proc, caller_proc = proc_from_source(instr), proc_from_source(caller)
    uni = _Unifier(instr_proc, proc_fact_env(caller_proc), caller_root=caller_proc._root)
    uni.unify_block(instr_proc._root.body, caller_proc._root.body[1:])
    assert block_str([uni.build_call()]) == "put(t, b[0:8])"


def test_a_pass_unifies_with_a_pass():
    src = CALLER.format(stmt="if j < 4:\n            c[j] = 0.0\n        else:\n            pass")
    assert _unify(ELSE.format(orelse="pass"), src) == "both(c[0:8])"


def test_a_window_statement_in_an_instruction_is_unsupported():
    instr = "def win(x: [f32][8] @ DRAM):\n    w = x[0:4]\n"
    caller = "def f(b: f32[8] @ DRAM):\n    w = b[0:4]\n"
    with pytest.raises(UnificationError, match="unsupported instruction statement WindowStmt"):
        _unify(instr, caller)
