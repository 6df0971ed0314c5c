"""The ``par`` proof against the tree interpreter.

Whenever ``loop_iterations_commute`` (and so ``par_write_classes``) says the
iterations of a generated 1-D or 2-D loop commute, running that loop with its
iterator reversed must give the forward run's outputs: bit for bit when every
written buffer is *shared* (distinct iterations write distinct cells), within
the ``check_equiv`` tolerance when some buffer is a ``+=`` *reduce* target
(floating-point addition reassociates).  Indices are affine in both iterators,
with the occasional ``%`` or ``/`` of one, so the proof sees forms whose
iterator coefficient alone does not tell iterations apart."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import proc_from_source
from repro.analysis.effects import ParUnproven, loop_iterations_commute, par_write_classes
from repro.interp import run_proc
from repro.interp.interpreter import _DIFF_ATOL, _DIFF_RTOL

SIG = "def f(x: f32[64] @ DRAM, y: f32[64] @ DRAM, z: f32[64] @ DRAM, B: f32[8, 32] @ DRAM, s: f32[1] @ DRAM):\n"

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
)
target = access.filter(lambda a: not a.startswith("x"))
stmt = st.tuples(target, st.sampled_from(["=", "+="]), access, st.sampled_from(["0.5", "-1.25", "2.0"])).map(
    lambda t: f"{t[0]} {t[1]} {t[2]} * {t[3]}"
)


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
    return proc_from_source(SIG + "\n".join(lines) + "\n")


def _run(p):
    rng = np.random.default_rng(11)
    args = {
        "x": rng.uniform(-1, 1, 64).astype(np.float32),
        "y": rng.uniform(-1, 1, 64).astype(np.float32),
        "z": rng.uniform(-1, 1, 64).astype(np.float32),
        "B": rng.uniform(-1, 1, (8, 32)).astype(np.float32),
        "s": rng.uniform(-1, 1, 1).astype(np.float32),
    }
    run_proc(p, backend="interp", **args)
    return args


def _check(body, n, m, inner):
    """Reverse the outer loop (or, when ``inner``, the inner one) whenever
    the proof says its iterations commute."""
    p = _proc(body, n, m, False, False)
    loop = p._root.body[0].body[0] if inner else p._root.body[0]
    commute = loop_iterations_commute(loop)
    try:
        classes = par_write_classes(loop)
    except ParUnproven:
        classes = None
    assert commute == (classes is not None)
    if not commute:
        return
    want = _run(p)
    got = _run(_proc(body, n, m, not inner, inner))
    maps = all(cells is None for cells in classes.values())
    for name in want:
        if maps:
            assert np.array_equal(got[name], want[name]), (name, body)
        else:
            np.testing.assert_allclose(got[name], want[name], rtol=_DIFF_RTOL, atol=_DIFF_ATOL, err_msg=name)


@settings(max_examples=200, deadline=None)
@given(body=st.lists(stmt, min_size=1, max_size=2), n=st.integers(2, 5))
def test_a_commuting_1d_loop_runs_the_same_reversed(body, n):
    _check(body, n, 0, False)


@settings(max_examples=200, deadline=None)
@given(body=st.lists(stmt, min_size=1, max_size=2), n=st.integers(2, 5), m=st.integers(2, 4), inner=st.booleans())
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
    assert not loop_iterations_commute(p._root.body[0])
