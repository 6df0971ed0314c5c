"""The split rule reads a buffer through the procedure's window aliases: a
window is its base buffer.  Each case is a rewrite that changes what the
program computes when the alias is missed; the tree interpreter shows the
change, and the rule refuses the rewrite."""
from __future__ import annotations

import numpy as np
import pytest

from repro import SchedulingError, fission, parallelize_loop, proc_from_source
from repro.analysis.effects import (
    ParUnproven,
    loop_iterations_commute,
    par_write_classes,
    window_bases,
)
from repro.interp import run_proc

# the first statement writes x through w; the second reads the next cell of x
FISSION = (
    "def f(n: size, x: f32[n + 1] @ DRAM, y: f32[n] @ DRAM):\n"
    "    w = x[0:n]\n"
    "    for i in seq(0, n):\n"
    "        w[i] = 2.0\n"
    "        y[i] = x[i + 1]\n"
)
# w[i] is x[i + 1]: each iteration reads what the one before it wrote
CARRIED = (
    "def f(n: size, x: f32[n + 1] @ DRAM):\n"
    "    w = x[1:n + 1]\n"
    "    for i in seq(0, n):\n"
    "        w[{i}] = x[{i}] + 1.0\n"
)


def test_window_bases_resolve_a_window_of_a_window_to_its_buffer():
    p = proc_from_source(
        "def f(x: f32[8] @ DRAM):\n    v = x[1:8]\n    w = v[2:6]\n    w[0] = 1.0\n"
    )
    x = p._root.args[0].name
    assert set(window_bases(p._root).values()) == {x} and len(window_bases(p._root)) == 2


def test_fission_refuses_a_split_that_writes_a_buffer_through_a_window_the_other_half_reads():
    p = proc_from_source(FISSION)
    x = np.arange(9, dtype=np.float32)
    y = np.zeros(8, np.float32)
    run_proc(p, backend="interp", n=8, x=x, y=y)
    assert y.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    with pytest.raises(SchedulingError, match="fission: the two halves of the loop body do not commute"):
        fission(p, p.body()[1].body()[1].before())


def test_a_loop_carried_dependence_through_a_window_is_refused_by_the_par_proof():
    p = proc_from_source(CARRIED.format(i="i"))
    reversed_ = proc_from_source(CARRIED.format(i="n - 1 - i"))
    runs = []
    for q in (p, reversed_):
        x = np.zeros(7, np.float32)
        run_proc(q, backend="interp", n=6, x=x)
        runs.append(x.tolist())
    assert runs == [[0, 1, 2, 3, 4, 5, 6], [0, 1, 1, 1, 1, 1, 1]]
    loop = p._root.body[1]
    assert not loop_iterations_commute(loop, p._root)
    with pytest.raises(ParUnproven):
        par_write_classes(loop, p._root)
    with pytest.raises(SchedulingError, match="parallelize_loop: loop iterations carry dependencies"):
        parallelize_loop(p, "i")


def test_additions_through_two_names_of_one_buffer_commute():
    p = proc_from_source(
        "def f(n: size, x: f32[n + 1] @ DRAM, y: f32[n] @ DRAM):\n"
        "    w = x[1:n + 1]\n"
        "    for i in seq(0, n):\n"
        "        w[i] += y[i]\n"
        "        x[i] += y[i]\n"
    )
    loop = p._root.body[1]
    w, x = p._root.body[0].name, p._root.args[1].name
    assert set(par_write_classes(loop, p._root)) == {w, x}


@pytest.mark.parametrize("first, second, trip, apart", [
    ("2 * i", "2 * i + 1", "8", True),
    ("2 * i", "2 * i + 2", "8", False),
    ("16 * i + j", "16 * i + 8 + j", "8", True),
    ("16 * i + j", "16 * i + 9 + j", "8", False),
    # j's range is unbounded: nothing keeps it below 16
    ("16 * i + j", "16 * i + j", "n", False),
])
def test_offsets_closer_than_the_iterator_coefficient_tell_iterations_apart(first, second, trip, apart):
    p = proc_from_source(
        "def f(n: size, x: f32[16 * n + 16] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        f"        for j in seq(0, {trip}):\n"
        f"            x[{first}] = x[{second}]\n"
    )
    assert loop_iterations_commute(p._root.body[0], p._root) is apart
