"""What the NumPy engine refuses to lower (the run then falls back to the
tree interpreter), and the runtime errors it reports the way the tree
interpreter does."""
from __future__ import annotations

import numpy as np
import pytest

from repro import new_config, proc_from_source
from repro.interp import CompileError, InterpError, compile_proc, make_random_args, run_proc
from repro.interp import compile as C
from repro.ir.types import index_t


@pytest.mark.parametrize("body, message", [
    ("    t: f32 @ DRAM\n    t[0] = 1.0\n", "indexed write to scalar"),
    ("    t: f32 @ DRAM\n    x[0] = t[0]\n", "indexed read of scalar"),
    ("    t: f32 @ DRAM\n    two(t[0:2])\n", "window of scalar cell"),
])
def test_the_engine_refuses(body, message):
    two = proc_from_source("def two(d: [f32][2] @ DRAM):\n    d[0] = 1.0\n")
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n" + body, {"two": two})
    with pytest.raises(CompileError, match=message):
        compile_proc(p)


def test_a_callee_that_cannot_be_lowered_fails_its_caller(monkeypatch):
    bad = proc_from_source("def bad(x: [f32][4] @ DRAM):\n    t: f32 @ DRAM\n    t[0] = x[0]\n")
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    bad(x)\n", {"bad": bad})
    monkeypatch.setattr(C, "_INLINE_STMT_BUDGET", 0)  # keep the call a call
    C.clear_compile_cache()
    try:
        with pytest.raises(CompileError, match="cannot lower bad: _CannotLower: indexed write to scalar"):
            compile_proc(p)
    finally:
        C.clear_compile_cache()


def test_runtime_errors_match_the_interpreter():
    cfg = new_config("compiled_cfg", [("k", index_t)])
    p = proc_from_source(
        "def f(x: f32[4] @ DRAM):\n    for i in seq(0, compiled_cfg.k):\n        x[i] = 1.0\n", {"compiled_cfg": cfg}
    )
    with pytest.raises(InterpError, match="read of configuration field compiled_cfg.k before any write"):
        run_proc(p, backend="compiled", config_state={}, x=np.zeros(4, np.float32))
    q = proc_from_source("def g(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[n - i] = 1.0\n")
    with pytest.raises(InterpError, match="out-of-bounds access while executing compiled g"):
        run_proc(q, backend="compiled", n=4, x=np.zeros(4, np.float32))


def test_negated_and_stride_scalar_actuals_are_inlined():
    g = proc_from_source("def g(a: f32, x: [f32][4] @ DRAM):\n    x[0] = a\n")
    p = proc_from_source(
        "def f(b: f32, x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n    g(-b, x[0:4])\n    g(stride(y, 0), x[0:4])\n",
        {"g": g},
    )
    assert compile_proc(p).inlined_calls == 2
    run_proc(p, backend="differential", **make_random_args(p, {}))


def test_a_window_of_the_wrong_rank_is_not_inlined():
    g = proc_from_source("def g(x: [f32][4] @ DRAM):\n    x[0] = 1.0\n")
    wrong_rank = proc_from_source("def f(A: f32[4, 4] @ DRAM):\n    g(A[0:4, 0:4])\n", {"g": g})
    assert compile_proc(wrong_rank).inlined_calls == 0


def test_a_call_the_inliner_cannot_compose_stays_a_call():
    # the window's rank matches the callee's shape, but the callee asks for the
    # stride of a dimension the window does not have: substitute_call_body
    # refuses, and the engine keeps the call instead of failing the procedure
    touch = proc_from_source("def touch(r: [f32][8] @ DRAM):\n    r[0] = stride(r, 1)\n")
    p = proc_from_source("def f(A: f32[8, 8] @ DRAM):\n    touch(A[0, 0:8])\n", {"touch": touch})
    compiled = compile_proc(p)
    assert compiled.inlined_calls == 0
    assert "__K[0](__ctx, A_0[0, 0:8])" in compiled.source


def test_an_indexed_read_of_a_scalar_in_a_loop_and_a_window_value_lower_as_the_interpreter_reads_them():
    loop = proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n    t: f32 @ DRAM\n    for i in seq(0, n):\n        x[i] = t[0]\n")
    with pytest.raises(CompileError, match="indexed read of scalar"):
        compile_proc(loop)
    window = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = x[0:2]\n")
    assert "[0:2]" in compile_proc(window).source


def test_a_window_of_a_scalar_cell_is_not_inlined():
    g = proc_from_source("def g(d: [f32][1] @ DRAM):\n    d[0] = 2.0\n")
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    t: f32 @ DRAM\n    g(t[0:1])\n    x[0] = t\n", {"g": g})
    assert compile_proc(p).inlined_calls == 0
    out = run_proc(p, backend="differential", **make_random_args(p, {}))
    assert out["x"][0] == 2.0


def test_a_hand_built_nest_that_reuses_its_iterator_is_kept_in_python():
    from repro.core.procedure import Procedure
    from repro.ir import nodes as N
    from repro.ir.build import with_fields

    p = proc_from_source("def f(x: f32[4, 4] @ DRAM):\n    for i in seq(0, 4):\n        for j in seq(0, 4):\n            x[i, 0] = 1.0\n")
    outer = p._root.body[0]
    inner = with_fields(outer.body[0], iter=outer.iter)
    bad = Procedure(with_fields(p._root, body=[with_fields(outer, body=[inner])]))
    assert "# not folded: inner loop rebinds the iterator" in compile_proc(bad).source


def test_a_loop_lowered_twice_keeps_one_python_name_for_its_iterator():
    # one For node shared by two places in the tree (the IR shares subtrees)
    from repro.core.procedure import Procedure
    from repro.ir.build import with_fields

    p = proc_from_source("def f(x: f32[5] @ DRAM):\n    for i in seq(0, 4):\n        x[i + 1] = x[i]\n")
    loop = p._root.body[0]
    twice = Procedure(with_fields(p._root, body=[loop, loop]))
    assert compile_proc(twice).source.count("for i_1 in range(") == 2
    out = run_proc(twice, backend="differential", x=np.arange(5, dtype=np.float32))
    assert out["x"].tolist() == [0.0] * 5


def test_a_par_reduction_into_an_outer_iterator_is_not_dispatched():
    from repro import obs

    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for j in seq(0, 2):\n"
        "        for i in par(0, n):\n"
        "            j += 1\n"
    )
    C.clear_compile_cache()
    assert compile_proc(p, threads=2).par_loops == 0
    got = {(e.stage, e.detail) for e in obs.events() if e.reason == "par-unlowerable"}
    assert ("par->seq", "no privatisation for index j") in got


def test_a_window_whose_bound_names_a_buffer_the_call_writes_is_not_inlined():
    # stride(x, 0) names x, which the call may write: a bound re-evaluated at
    # every composed access must not read what the callee writes
    g = proc_from_source("def g(x: [f32][4] @ DRAM):\n    x[0] = 1.0\n")
    p = proc_from_source("def f(x: f32[8] @ DRAM):\n    g(x[0:stride(x, 0) + 3])\n", {"g": g})
    assert compile_proc(p).inlined_calls == 0
    out = run_proc(p, backend="differential", x=np.zeros(8, dtype=np.float32))
    assert out["x"].tolist() == [1.0] + [0.0] * 7
