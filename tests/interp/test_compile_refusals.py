"""What the NumPy engine refuses to lower (the run then falls back to the
tree interpreter), and the runtime errors it reports the way the tree
interpreter does."""
from __future__ import annotations

import numpy as np
import pytest

from repro import new_config, proc_from_source
from repro.core.procedure import Procedure
from repro.frontend.parser import parse_expr_fragment
from repro.interp import CompileError, InterpError, compile_proc, make_random_args, run_proc
from repro.interp import compile as C
from repro.ir.build import with_fields
from repro.ir.types import index_t


def test_a_callee_that_cannot_be_lowered_fails_its_caller(monkeypatch):
    # the parser leaves the lowerer nothing to refuse: a lowering bug, made
    # here by a statement kind that raises, is what declines a procedure
    def bug(self, s):
        raise RuntimeError("no lowering for an allocation")

    bad = proc_from_source("def bad(x: [f32][4] @ DRAM):\n    t: f32 @ DRAM\n    t = x[0]\n")
    p = proc_from_source("def f(x: f32[4] @ DRAM):\n    bad(x)\n", {"bad": bad})
    monkeypatch.setattr(C, "_INLINE_STMT_BUDGET", 0)  # keep the call a call
    monkeypatch.setattr(C._Lowerer, "stmt_alloc", bug)
    C.clear_compile_cache()
    try:
        with pytest.raises(CompileError, match="cannot lower bad: RuntimeError: no lowering for an allocation"):
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
    # a negated float datum and a stride (an index) each bind a parameter
    # of their own kind
    g = proc_from_source("def g(a: f32, x: [f32][4] @ DRAM):\n    x[0] = a\n")
    h = proc_from_source("def h(a: index, x: [f32][4] @ DRAM):\n    x[1] = a\n")
    p = proc_from_source(
        "def f(b: f32, x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n    g(-b, x[0:4])\n    h(stride(y, 0), x[0:4])\n",
        {"g": g, "h": h},
    )
    assert compile_proc(p).inlined_calls == 2
    run_proc(p, backend="differential", **make_random_args(p, {}))


def test_a_window_value_lowers_as_the_interpreter_reads_it():
    # the parser refuses a window as a value; a fragment, where a window
    # may stand, can still put one there
    root = proc_from_source("def f(x: f32[4] @ DRAM):\n    x[0] = 1.0\n")._root
    rhs = parse_expr_fragment("x[0:2]", root)
    window = Procedure(with_fields(root, body=[with_fields(root.body[0], rhs=rhs)]))
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


def test_a_window_whose_bound_names_a_buffer_the_call_writes_is_not_inlined():
    # stride(x, 0) names x, which the call may write: a bound re-evaluated at
    # every composed access must not read what the callee writes
    g = proc_from_source("def g(x: [f32][4] @ DRAM):\n    x[0] = 1.0\n")
    p = proc_from_source("def f(x: f32[8] @ DRAM):\n    g(x[0:stride(x, 0) + 3])\n", {"g": g})
    assert compile_proc(p).inlined_calls == 0
    out = run_proc(p, backend="differential", x=np.zeros(8, dtype=np.float32))
    assert out["x"].tolist() == [1.0] + [0.0] * 7
