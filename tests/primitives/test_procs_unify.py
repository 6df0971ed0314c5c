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
