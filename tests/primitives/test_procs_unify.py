"""Multi-procedure primitives: replace (unification), inline, call_eqv, extract."""
from __future__ import annotations

import pytest

from repro import SchedulingError, call_eqv, divide_loop, extract_subproc, inline, rename, replace, replace_all, simplify
from repro.interp import check_equiv
from repro.machines import AVX2


def test_rename(gemv):
    assert rename(gemv, "gemv_opt").name() == "gemv_opt"


def _staged_copy():
    from repro import proc_from_source

    return proc_from_source(
        "def staged(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    for jo in seq(0, n / 8):\n"
        "        v: f32[8] @ VEC_AVX2\n"
        "        for ji in seq(0, 8):\n"
        "            v[ji] = x[8 * jo + ji]\n"
        "        for ji in seq(0, 8):\n"
        "            y[8 * jo + ji] = v[ji]\n",
        {"VEC_AVX2": AVX2.mem_type},
    )


def test_replace_with_load_instruction():
    iset = AVX2.get_instruction_set("f32")
    p = _staged_copy()
    q = replace(p, p.find_loop("ji").as_block(), iset.load)
    assert "avx2_f32_load" in str(q)
    assert check_equiv(p, q, {"n": 16})


def test_replace_all_selects_by_memory():
    iset = AVX2.get_instruction_set("f32")
    p = _staged_copy()
    q = replace_all(p, [iset.load, iset.store])
    text = str(q)
    assert "avx2_f32_load" in text and "avx2_f32_store" in text
    assert check_equiv(p, q, {"n": 24})


def test_replace_all_gives_every_match_to_the_earliest_instruction():
    """Two instructions that unify with the same blocks: the earlier one in
    the list takes all of them, in one sweep (an operand that needs the other
    one is ``replace``d by cursor, as the Gemmini schedule does)."""
    from repro import proc_from_source
    from repro.machines.gemmini import GEMMINI

    p = proc_from_source(
        "def loads(A: i8[32, 16] @ DRAM, t: i8[32, 16] @ GEMM_SCRATCH):\n"
        "    for k in seq(0, 2):\n"
        "        for i in seq(0, 16):\n"
        "            for j in seq(0, 16):\n"
        "                t[16 * k + i, j] = A[16 * k + i, j]\n"
        "    for i in seq(0, 16):\n"
        "        for j in seq(0, 16):\n"
        "            t[i, j] = A[i + 16, j]\n",
        {"GEMM_SCRATCH": GEMMINI.get("do_ld_i8_id1")._root.args[1].mem},
    )
    id1, id2 = GEMMINI.get("do_ld_i8_id1"), GEMMINI.get("do_ld_i8_id2")
    text = str(replace_all(p, [id2, id1]))
    assert text.count("do_ld_i8_id2(") == 2 and "do_ld_i8_id1(" not in text and "for i in" not in text


def test_replace_all_gives_overlapping_windows_to_the_first_in_program_order():
    from repro import proc_from_source

    copy2 = proc_from_source("def copy2(d: f32[2] @ DRAM, s: f32[2] @ DRAM):\n    d[0] = s[0]\n    d[1] = s[1]\n")
    p = proc_from_source(
        "def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        + "".join(f"    x[{i}] = y[{i}]\n" for i in range(5))
    )
    q = replace_all(p, copy2)
    text = str(q)
    assert "copy2(x[0:2], y[0:2])" in text and "copy2(x[2:4], y[2:4])" in text
    assert text.count("copy2(") == 2 and "x[4] = y[4]" in text
    assert check_equiv(p, q, {})


_VECTORISED_SAXPY = (
    "def saxpy(n: size, alpha: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for io in seq(0, n / 8):\n"
    "        var1: f32[8] @ VEC_AVX2\n"
    "        var2: f32[8] @ VEC_AVX2\n"
    "        var3: f32[8] @ VEC_AVX2\n"
    "        for ii in seq(0, 8):\n"
    "            var1[ii] = y[ii + 8 * io]\n"
    "        for ii in seq(0, 8):\n"
    "            var2[ii] = x[ii + 8 * io]\n"
    "        for ii in seq(0, 8):\n"
    "            var3[ii] = alpha\n"
    "        for ii in seq(0, 8):\n"
    "            var1[ii] += var3[ii] * var2[ii]\n"
    "        for ii in seq(0, 8):\n"
    "            y[ii + 8 * io] = var1[ii]\n"
    "    for ii in seq(0, n % 8):\n"
    "        y[ii + 8 * (n / 8)] += alpha * x[ii + 8 * (n / 8)]\n"
)


def _shape(s):
    from repro.ir import nodes as N

    return (type(s), [_shape(c) for c in s.body] if isinstance(s, (N.For, N.If)) else None)


def _matching_windows(q, instr):
    """The windows of ``q`` whose statements nest like ``instr``'s body."""
    from repro.ir.build import stmt_list_field_paths

    want = [_shape(s) for s in instr._root.body]
    return sum(
        [_shape(s) for s in stmts[i : i + len(want)]] == want
        for _, _, stmts in stmt_list_field_paths(q._root)
        for i in range(len(stmts) - len(want) + 1)
    )


def _counting_unifications(monkeypatch):
    from repro.primitives import unify

    attempts = []
    try_unify = unify._try_unify
    monkeypatch.setattr(unify, "_try_unify", lambda *a: attempts.append(a[1]) or try_unify(*a))
    return attempts


def _vectorised_saxpy():
    from repro import proc_from_source

    return proc_from_source(_VECTORISED_SAXPY, {"VEC_AVX2": AVX2.mem_type})


def test_replace_all_tries_an_instruction_only_where_its_skeleton_matches(monkeypatch):
    """The cost model, as a count: ``replace_all`` unifies each instruction
    only with the windows of the version it sweeps whose statements nest like
    its body."""
    p, instrs = _vectorised_saxpy(), AVX2.get_instructions("f32")
    # each instruction sweeps the version its predecessors left
    expected, q = 0, p
    for instr in instrs:
        expected += _matching_windows(q, instr)
        q = replace_all(q, [instr])
    attempts = _counting_unifications(monkeypatch)
    out = replace_all(p, instrs)
    assert str(out) == str(q) and "for ii in seq(0, 8)" not in str(out)
    assert len(attempts) == expected == 18


def test_an_instruction_that_matches_no_window_costs_no_unification(monkeypatch):
    from repro.machines.gemmini import GEMMINI

    p, instrs = _vectorised_saxpy(), AVX2.get_instructions("f32")
    extra = [GEMMINI.get("do_ld_i8_id1"), GEMMINI.get("do_ld_i8_id2")]
    assert not any(_matching_windows(p, i) for i in extra)
    attempts = _counting_unifications(monkeypatch)
    out = replace_all(p, instrs)
    n = len(attempts)
    assert str(replace_all(p, instrs + extra)) == str(out)
    assert len(attempts) == 2 * n


def test_replace_memory_mismatch_refused(copy2d):
    # a DRAM->DRAM copy must NOT unify with a register load
    iset = AVX2.get_instruction_set("f32")
    p = divide_loop(copy2d, "j", 8, ["jo", "ji"], tail="cut")
    p = simplify(p)
    q = replace_all(p, [iset.load])
    assert "avx2_f32_load" not in str(q)


def test_replace_accepts_a_plain_procedure_whose_body_unifies():
    from repro import proc_from_source

    copy8 = proc_from_source(
        "def copy8(dst: f32[8] @ DRAM, src: f32[8] @ DRAM):\n"
        "    for k in seq(0, 8):\n"
        "        dst[k] = src[k]\n"
    )
    p = proc_from_source(
        "def blocks(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    assert n % 8 == 0\n"
        "    for jo in seq(0, n / 8):\n"
        "        for ji in seq(0, 8):\n"
        "            y[8 * jo + ji] = x[8 * jo + ji]\n"
    )
    assert not copy8.is_instr()
    q = replace(p, p.find_loop("ji").as_block(), copy8)
    assert "copy8(" in str(q) and "for ji" not in str(q)
    assert check_equiv(p, q, {"n": 24})


def test_replace_fails_on_mismatch(gemv):
    iset = AVX2.get_instruction_set("f32")
    with pytest.raises(SchedulingError):
        replace(gemv, gemv.find_loop("j").as_block(), iset.load)


def test_inline(axpy, gemv):
    # build a caller that calls axpy on a row of A
    from repro import proc_from_source
    # extract a subproc from gemv then inline it back
    j_loop = gemv.find_loop("j")
    p, sub = extract_subproc(gemv, j_loop.as_block(), "row_update")
    assert "row_update(" in str(p)
    assert check_equiv(gemv, p, {"M": 8, "N": 8})
    q = inline(p, p.find("row_update(_)"))
    assert "row_update(" not in str(q)
    assert check_equiv(gemv, q, {"M": 8, "N": 8})


def test_call_eqv(gemv):
    j_loop = gemv.find_loop("j")
    p, sub = extract_subproc(gemv, j_loop.as_block(), "row_update")
    sub2 = rename(sub, "row_update_v2")
    q = call_eqv(p, sub, sub2)
    assert "row_update_v2(" in str(q)
    assert check_equiv(gemv, q, {"M": 8, "N": 8})
