"""The ``par`` proof against the tree interpreter.

Whenever ``loop_iterations_commute`` says the iterations of a generated 1-D or
2-D loop commute, running that loop with its iterator reversed must give the
forward run's outputs: bit for bit when every written buffer is *shared*
(distinct iterations write distinct cells), within the ``check_equiv``
tolerance when some buffer is a ``+=`` *reduce* target (floating-point
addition reassociates).  ``par_write_classes`` agrees with it, except that it
refuses any body touching configuration state.  Indices are affine in both
iterators, with the occasional ``%`` or ``/`` of one, so the proof sees forms
whose iterator coefficient alone does not tell iterations apart.  The
configuration field ``pcfg.k`` is read as an index, before or after it is
written (directly or by the callee ``setk``) with an iterator-dependent or
invariant value; the procedure sets it first and reads it last, so a
reordering that changes its final value shows in ``w``."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import new_config, proc_from_source
from repro.analysis.effects import ParUnproven, accesses_of, loop_iterations_commute, par_write_classes, split_classes
from repro.interp import run_proc
from repro.interp.interpreter import _DIFF_ATOL, _DIFF_RTOL
from repro.ir.types import index_t

SIG = (
    "def f(x: f32[64] @ DRAM, y: f32[64] @ DRAM, z: f32[64] @ DRAM, B: f32[8, 32] @ DRAM, s: f32[1] @ DRAM,"
    " w: f32[1] @ DRAM):\n    pcfg.k = 1\n"
)
PCFG = new_config("pcfg", [("k", index_t)])
ENV = {"pcfg": PCFG, "setk": proc_from_source("def setk(v: index):\n    pcfg.k = v\n", {"pcfg": PCFG})}

# placeholders: {I} the outer iterator, {J} the inner one (absent in 1-D)
coeff = st.integers(0, 3)
offset = st.integers(0, 2)
affine = st.tuples(coeff, coeff, offset).map(lambda t: f"{t[0]} * {{I}} + {t[1]} * {{J}} + {t[2]}")
folded = st.tuples(st.sampled_from(["{I}", "{J}"]), st.sampled_from(["%", "/"]), coeff, offset).map(
    lambda t: f"{t[0]} + {t[2]} * ({t[0]} {t[1]} 2) + {t[3]}"
)
index = st.one_of(affine, affine, folded)
row = st.tuples(st.sampled_from(["{I}", "{J}", "0"]), offset).map(lambda t: f"{t[0]} + {t[1]}")
access = st.one_of(
    st.tuples(st.sampled_from(["x", "y", "z"]), index).map(lambda t: f"{t[0]}[{t[1]}]"),
    st.tuples(row, index).map(lambda t: f"B[{t[0]}, {t[1]}]"),
    st.just("s[0]"),
    st.sampled_from(["x[pcfg.k]", "z[pcfg.k + 1]"]),
)
target = access.filter(lambda a: not a.startswith("x"))
assign = st.tuples(target, st.sampled_from(["=", "+="]), access, st.sampled_from(["0.5", "-1.25", "2.0"])).map(
    lambda t: f"{t[0]} {t[1]} {t[2]} * {t[3]}"
)
config_write = st.tuples(st.sampled_from(["pcfg.k = {}", "setk({})"]), st.sampled_from(["{I}", "{J}", "2", "3"])).map(
    lambda t: t[0].format(t[1])
)
stmt = st.one_of(assign, assign, config_write)


def _proc(body, n, m, rev_outer, rev_inner):
    """The loop nest with ``body`` inside; a reversed loop runs its iterator
    from the top down."""
    it_i = f"({n} - 1 - i)" if rev_outer else "i"
    it_j = f"({m} - 1 - j)" if rev_inner else "j"
    lines = ["    for i in seq(0, %d):" % n]
    if m:
        lines.append("        for j in seq(0, %d):" % m)
    pad = " " * (12 if m else 8)
    lines += [pad + s.format(I=it_i, J=it_j if m else "0") for s in body]
    lines.append("    w[0] = x[pcfg.k]")
    return proc_from_source(SIG + "\n".join(lines) + "\n", ENV)


def _run(p):
    rng = np.random.default_rng(11)
    args = {
        "x": rng.uniform(-1, 1, 64).astype(np.float32),
        "y": rng.uniform(-1, 1, 64).astype(np.float32),
        "z": rng.uniform(-1, 1, 64).astype(np.float32),
        "B": rng.uniform(-1, 1, (8, 32)).astype(np.float32),
        "s": rng.uniform(-1, 1, 1).astype(np.float32),
        "w": np.zeros(1, np.float32),
    }
    run_proc(p, backend="interp", **args)
    return args


def _check(body, n, m, inner):
    """Reverse the outer loop (or, when ``inner``, the inner one) whenever
    the proof says its iterations commute."""
    p = _proc(body, n, m, False, False)
    loop = p._root.body[1].body[0] if inner else p._root.body[1]
    commute = loop_iterations_commute(loop)
    if commute:
        want = _run(p)
        got = _run(_proc(body, n, m, not inner, inner))
        maps = all(cells is None for cells in split_classes(loop.iter, loop.body, loop.body).values())
        for name in want:
            if maps:
                assert np.array_equal(got[name], want[name]), (name, body)
            else:
                np.testing.assert_allclose(got[name], want[name], rtol=_DIFF_RTOL, atol=_DIFF_ATOL, err_msg=name)
    try:
        par_write_classes(loop)
        par = True
    except ParUnproven:
        par = False
    assert par == (commute and not any(isinstance(a.buf, tuple) for a in accesses_of(loop.body)))


@settings(max_examples=200, deadline=None)
@given(body=st.lists(stmt, min_size=1, max_size=3), n=st.integers(2, 5))
# an exposed read of a field the body writes, to an invariant value
@example(body=["y[{I}] = x[pcfg.k] * 0.5", "pcfg.k = 3"], n=4)
# a field written by a callee
@example(body=["y[{I}] = x[pcfg.k] * 0.5", "setk({I})"], n=4)
def test_a_commuting_1d_loop_runs_the_same_reversed(body, n):
    _check(body, n, 0, False)


@settings(max_examples=200, deadline=None)
@given(body=st.lists(stmt, min_size=1, max_size=3), n=st.integers(2, 5), m=st.integers(2, 4), inner=st.booleans())
def test_a_commuting_2d_loop_runs_the_same_reversed(body, n, m, inner):
    _check(body, n, m, inner)


@pytest.mark.parametrize(
    "body, n, m",
    [
        # an inner iterator beside the outer one: i + j meets i' + j'
        (["y[{I} + {J}] = x[3 * {I} + {J}] * 0.5"], 4, 4),
        # a coefficient of one does not make i % 2 tell iterations apart
        (["y[{I} + -2 * ({I} / 2)] = x[{I}] * 0.5"], 4, 0),
    ],
)
def test_iterations_that_meet_in_a_cell_do_not_commute(body, n, m):
    p = _proc(body, n, m, False, False)
    assert not loop_iterations_commute(p._root.body[1])
