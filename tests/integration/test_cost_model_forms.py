"""The cost model on every statement and expression form it prices: each
case compares two procedures that must cost the same (or a known multiple),
so a form the model stopped pricing the documented way is noticed."""
from __future__ import annotations

import pytest

from repro import instr, new_config, proc_from_source
from repro.ir.types import index_t
from repro.perf import AVX2_SPEC, CostModel

CM = CostModel(AVX2_SPEC)
CFG = cost_cfg = new_config("cost_cfg", [("k", index_t)])


@instr("set_k({m});")
def setk(m: size):  # noqa: F821 - object code
    cost_cfg.k = m
SIG = "def f(n: size, m: size, x: f32[n] @ DRAM, y: f64[n] @ DRAM):\n"
BODY = "        x[i] = x[i] + 1.0\n"


def _cost(body: str, sizes=None, env=None):
    rep = CM.report(proc_from_source(SIG + body, {"cost_cfg": CFG, **(env or {})}), sizes or {"n": 8})
    return (rep.compute_cycles, rep.dram_bytes, rep.scalar_ops, rep.config_writes, rep.instr_calls)


LOOP = "    for i in seq(0, n):\n" + BODY


@pytest.mark.parametrize("bound", ["-(-n)", "n - 0", "n + 0"])
def test_a_loop_bound_is_evaluated(bound):
    assert _cost(f"    for i in seq(0, {bound}):\n" + BODY) == _cost(LOOP)


def test_an_unknown_loop_bound_is_one_iteration():
    one = _cost("    for i in seq(0, 1):\n" + BODY)
    assert _cost("    for i in seq(0, m):\n" + BODY) == one


@pytest.mark.parametrize("cond, taken", [
    ("n < 9", True), ("n <= 8", True), ("n > 8", False), ("n >= 9", False), ("n == 8", True), ("n != 8", False),
])
def test_a_decided_condition_costs_one_branch(cond, taken):
    then_only = _cost(LOOP)
    else_only = _cost("    pass\n")
    got = _cost(f"    if {cond}:\n        for i in seq(0, n):\n            x[i] = x[i] + 1.0\n"
                "    else:\n        pass\n")
    want = then_only if taken else else_only
    assert got == (want[0] + 1.0,) + want[1:]


@pytest.mark.parametrize("cond", ["x[0] > 0.0", "n > 2 and n < 9"])
def test_an_undecided_condition_costs_half_of_each_branch(cond):
    then_only = _cost("    x[0] = 1.0\n    x[1] = 2.0\n")
    got = _cost(f"    if {cond}:\n        x[0] = 1.0\n        x[1] = 2.0\n    else:\n        pass\n")
    assert got[0] >= 1.0 + then_only[0] / 2 and got[1] == then_only[1] / 2


def test_allocations_windows_and_negation_are_priced():
    base = _cost("    x[0] = x[1]\n")
    assert _cost("    t: f64 @ DRAM\n    t = x[1]\n")[1] == 8 + 4  # an f64 cell is written
    assert _cost("    w = x[0:4]\n    w[0] = x[1]\n")[0] == base[0] + 0.5
    assert _cost("    x[0] = -x[1]\n") == base


def test_a_configuration_write_costs_its_write_everywhere():
    direct = _cost("    cost_cfg.k = 1\n")
    assert direct[3] == 1 and direct[0] == AVX2_SPEC.config_write_cost
    through = _cost("    setk(1)\n", env={"setk": setk})
    assert through == (direct[0] + AVX2_SPEC.vector_issue_cost, 0, 0, 1, 1)


def test_a_call_costs_its_callee_under_the_bound_sizes():
    g = proc_from_source("def g(k: size, v: [f32][k] @ DRAM):\n    for i in seq(0, k):\n        v[i] = v[i] + 1.0\n")
    called = _cost("    g(n, x[0:n])\n", env={"g": g})
    inline = _cost(LOOP)
    assert called[1:] == inline[1:] and called[0] == inline[0] + 2.0
