"""Small helpers on the inputs the libraries never give them: a vector
machine with predication that is neither AVX2 nor AVX-512, an edit session
or a simplify that edits nothing, a one-line docstring in the line counter,
a Halide buffer nothing computes, the Exo-style Gemmini schedule on its own
kernel, and a cursor whose target is gone."""
from __future__ import annotations

import pytest

from repro import SchedulingError, obs, proc_from_source
from repro.cursors.cursor import StmtCursor
from repro.errors import cursor_location
from repro.ir.edit import EditSession
from repro.machines.vector import make_vector_machine
from repro.metrics import count_loc


def test_a_generic_predicated_machine_uses_zero_masking_templates():
    m = make_vector_machine("TEST128", 128, supports_predication=True)
    iset = m.get_instruction_set("f32")
    assert "maskz_loadu" in iset.pred_load._root.instr.c_instr
    assert "mask_storeu" in iset.pred_store._root.instr.c_instr


def test_an_edit_session_with_no_edits_counts_none():
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    before = obs.count("sched.atomic_edits")
    q = EditSession(p).finish()
    assert q is p and obs.count("sched.atomic_edits") == before


def test_a_simplify_with_nothing_to_do_returns_its_input_and_counts_no_edit():
    from repro.api import S

    p = proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] = 1.0\n")
    before = obs.count("sched.atomic_edits")
    out, trace = S.simplify().apply_traced(p)
    assert out is p and obs.count("sched.atomic_edits") == before
    assert trace.applied() == [] and trace.total_edits() == 0


def test_the_line_counter_skips_a_one_line_docstring():
    assert count_loc('def f():\n    """One line."""\n    return 1\n') == 2


def test_a_halide_buffer_nothing_computes_is_refused():
    from repro.halide import make_blur
    from repro.halide.library import producer_loop_nest

    with pytest.raises(SchedulingError, match="no computation writes 'nothing'"):
        producer_loop_nest(make_blur(), "nothing")


def test_the_exo_style_gemmini_schedule_builds_its_own_kernel():
    from repro.gemmini.schedule import schedule_matmul_gemmini_exo_style

    assert schedule_matmul_gemmini_exo_style().name() == "matmul_on_gemmini_exo"


def test_a_cursor_whose_target_is_gone_is_located_by_its_repr():
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")
    ghost = StmtCursor(p, (("body", 7),))
    assert cursor_location(ghost).startswith("<repro.cursors.cursor.StmtCursor object at")
