"""The split rule against the tree interpreter.

Whenever ``fission`` accepts a split of a generated loop or ``if`` body (the
``if`` has an ``else``), or ``fuse`` accepts a generated pair of loops or of
``if`` statements, both forms run on the tree interpreter and must give the
same outputs: bit for bit, or within the ``check_equiv`` tolerance for a
``+=`` target (floating-point addition reassociates).  The statements are the
``par`` oracle's, configuration reads and writes and accesses through the
window ``yv`` of ``y`` included (``tests/property/test_par_proof.py``); a loop
bound or ``if`` condition may read the configuration field too."""
from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import SchedulingError, fission, fuse, proc_from_source
from repro.interp.interpreter import _DIFF_ATOL, _DIFF_RTOL

from test_par_proof import ENV, SIG, _run, stmt

HEADS = ["seq(0, {n})", "seq(0, pcfg.k + 2)"]
CONDS = ["pcfg.k < 2", "y[1] < 0.0", "z[0] > 0.0"]


def _lines(stmts, pad, i):
    return [pad + s.format(I=i, J="0") for s in stmts]


def _proc(lines):
    return proc_from_source(SIG + "\n".join(lines + ["    w[0] = x[pcfg.k]"]) + "\n", ENV)


def _same(p, q, stmts):
    """``p`` and ``q`` give the same outputs; a ``+=`` target may differ by
    rounding."""
    want, got = _run(p), _run(q)
    reduced = {s.split("[")[0].replace("yv", "y") for s in stmts if "+=" in s}  # yv is a window of y
    for name in want:
        if name in reduced:
            np.testing.assert_allclose(got[name], want[name], rtol=_DIFF_RTOL, atol=_DIFF_ATOL, err_msg=name)
        else:
            assert np.array_equal(got[name], want[name]), (name, stmts)


halves = st.tuples(st.lists(stmt, min_size=1, max_size=2), st.lists(stmt, min_size=1, max_size=2))


@settings(max_examples=120, deadline=None)
@given(halves=halves, head=st.sampled_from(HEADS), n=st.integers(2, 5))
# a read of the field the second half writes from the iterator
@example(halves=(["y[{I}] = x[pcfg.k] * 0.5"], ["pcfg.k = {I}"]), head=HEADS[0], n=4)
# the first half reads what the second half wrote an iteration earlier, at an
# offset as far as the coefficient, directly or through the window yv of y
@example(halves=(["z[{I}] = y[2 * {I}] * 0.5"], ["y[2 * {I} + 2] = x[{I}] * 0.5"]), head=HEADS[0], n=4)
@example(halves=(["z[{I}] = y[{I}] * 0.5"], ["yv[{I}] = x[{I}] * 0.5"]), head=HEADS[0], n=4)
def test_a_loop_fission_keeps_the_outputs(halves, head, n):
    first, second = halves
    p = _proc([f"    for i in {head.format(n=n)}:"] + _lines(first + second, " " * 8, "i"))
    try:
        q = fission(p, p.body()[2].body()[len(first)].before())
    except SchedulingError:
        return
    _same(p, q, first + second)


@settings(max_examples=60, deadline=None)
@given(halves=halves, cond=st.sampled_from(CONDS))
# the first half writes the field the condition reads
@example(halves=(["pcfg.k = 3"], ["y[0] = x[0] * 0.5"]), cond=CONDS[0])
# ... or, through the window yv, the cell y[1] it reads
@example(halves=(["yv[0] = x[0] * -1.25"], ["pcfg.k = 2"]), cond=CONDS[1])
def test_an_if_fission_keeps_the_outputs(halves, cond):
    first, second = halves
    p = _proc([f"    if {cond}:"] + _lines(first + second, " " * 8, "2") + ["    else:", "        s[0] = x[3] * 0.5"])
    try:
        q = fission(p, p.body()[2].body()[len(first)].before())
    except SchedulingError:
        return
    _same(p, q, first + second)


@settings(max_examples=120, deadline=None)
@given(halves=halves, head=st.sampled_from(HEADS), n=st.integers(2, 5))
# the first loop's own iterations do not commute; the pair still fuses
@example(halves=(["s[0] = s[0] * 2.0"], ["y[{I}] = x[{I}] * 0.5"]), head=HEADS[0], n=4)
def test_a_fuse_keeps_the_outputs(halves, head, n):
    first, second = halves
    h = head.format(n=n)
    p = _proc([f"    for i in {h}:"] + _lines(first, " " * 8, "i") + [f"    for i in {h}:"] + _lines(second, " " * 8, "i"))
    try:
        q = fuse(p, p.body()[2], p.body()[3])
    except SchedulingError:
        return
    _same(p, q, first + second)


@settings(max_examples=60, deadline=None)
@given(halves=halves, cond=st.sampled_from(CONDS))
# the first if writes the field the condition reads
@example(halves=(["pcfg.k = 3"], ["y[0] = x[0] * 0.5"]), cond=CONDS[0])
# ... or, through the window yv, the cell y[1] it reads
@example(halves=(["yv[0] = x[0] * -1.25"], ["pcfg.k = 2"]), cond=CONDS[1])
def test_an_if_fuse_keeps_the_outputs(halves, cond):
    first, second = halves
    p = _proc(
        [f"    if {cond}:"] + _lines(first, " " * 8, "2") + ["    else:", "        s[0] = x[3] * 0.5"]
        + [f"    if {cond}:"] + _lines(second, " " * 8, "2")
    )
    try:
        q = fuse(p, p.body()[2], p.body()[3])
    except SchedulingError:
        return
    _same(p, q, first + second)
