"""Configuration fields are locations of the one access summary.

Each reproduction below was a rewrite the primitives accepted although it
changed what the tree interpreter computes (or, for ``fuse``, a legal rewrite
they refused).  ``cfg`` has one ``index`` field ``k``; ``x`` holds
``0, 1, ..., 7`` and ``y`` starts at zero."""
from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SchedulingError,
    bind_config,
    delete_config,
    fission,
    fuse,
    new_config,
    parallelize_loop,
    proc_from_source,
)
from repro.analysis.effects import accesses_of, exposed_reads, is_idempotent, loop_iterations_commute, stmts_commute
from repro.interp import run_proc
from repro.ir.types import index_t

CFG = new_config("split_cfg", [("k", index_t)])
SIG = "def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
SETK = proc_from_source("def setk(v: index):\n    split_cfg.k = v\n", {"split_cfg": CFG})
GETK = proc_from_source("def getk(y: [f32][8] @ DRAM):\n    y[0] = 1.0 * split_cfg.k\n", {"split_cfg": CFG})
K = (CFG, "k")


def _proc(body):
    return proc_from_source(SIG + body, {"split_cfg": CFG, "setk": SETK, "getk": GETK})


def _run(p):
    x, y = np.arange(8, dtype=np.float32), np.zeros(8, np.float32)
    run_proc(p, backend="interp", x=x, y=y)
    return x, y


def test_fission_refuses_a_read_of_a_field_a_later_statement_writes_per_iteration():
    p = _proc("    split_cfg.k = 5\n    for i in seq(0, 4):\n        y[i] = x[split_cfg.k]\n        split_cfg.k = i\n")
    assert list(_run(p)[1][:4]) == [5, 0, 1, 2]
    with pytest.raises(SchedulingError, match="fission: the two halves of the loop body do not commute across iterations"):
        fission(p, p.body()[1].body()[0].after())


def test_fission_of_an_if_refuses_a_first_half_that_writes_the_field_the_condition_reads():
    p = _proc("    split_cfg.k = 1\n    if split_cfg.k < 3:\n        split_cfg.k = 5\n        y[0] = 1.0\n")
    with pytest.raises(SchedulingError, match="fission: the first half of the if body writes the condition's inputs"):
        fission(p, p.body()[1].body()[0].after())


def test_fission_refuses_a_first_half_that_writes_what_the_bounds_read():
    p = _proc("    split_cfg.k = 4\n    for i in seq(0, split_cfg.k):\n        split_cfg.k = 2\n        y[i] = 1.0\n")
    with pytest.raises(SchedulingError, match="fission: the two halves of the loop body do not commute across iterations"):
        fission(p, p.body()[1].body()[0].after())


def test_delete_config_sees_code_after_the_enclosing_loop():
    p = _proc("    split_cfg.k = 0\n    for i in seq(0, 4):\n        split_cfg.k = i\n    y[0] = x[split_cfg.k]\n")
    assert _run(p)[1][0] == 3.0
    with pytest.raises(SchedulingError, match="delete_config: the configuration field is read by later code"):
        delete_config(p, p.body()[1].body()[0])


def test_delete_config_sees_the_next_iteration_of_the_enclosing_loop():
    p = _proc("    for i in seq(0, 4):\n        y[i] = x[split_cfg.k]\n        split_cfg.k = i\n")
    with pytest.raises(SchedulingError, match="delete_config: the configuration field is read by later code"):
        delete_config(p, p.body()[0].body()[1])


def test_delete_config_accepts_a_write_the_following_code_overwrites():
    p = _proc("    for i in seq(0, 4):\n        split_cfg.k = i\n        split_cfg.k = 2\n        y[i] = x[split_cfg.k]\n")
    q = delete_config(p, p.body()[0].body()[0])
    assert all(np.array_equal(a, b) for a, b in zip(_run(p), _run(q)))


def test_bind_config_refuses_a_statement_that_reads_the_field_elsewhere():
    p = _proc("    y[0] = x[split_cfg.k] + x[1]\n")
    with pytest.raises(SchedulingError, match="bind_config: the configuration field is read by later code"):
        bind_config(p, p.body()[0].rhs().rhs(), CFG, "k")


def test_parallelize_loop_refuses_an_exposed_read_of_a_field_the_body_writes():
    p = _proc("    for i in seq(0, 4):\n        y[i] = x[split_cfg.k]\n        split_cfg.k = 3\n")
    assert not loop_iterations_commute(p._root.body[0], p._root)
    with pytest.raises(SchedulingError, match="parallelize_loop: loop iterations carry dependencies"):
        parallelize_loop(p, "i")


def test_a_callees_write_of_a_field_is_seen_by_the_par_proof():
    p = _proc("    split_cfg.k = 7\n    for i in seq(0, 4):\n        y[i] = x[split_cfg.k]\n        setk(i)\n")
    assert not loop_iterations_commute(p._root.body[1], p._root)
    with pytest.raises(SchedulingError, match="parallelize_loop: loop iterations carry dependencies"):
        parallelize_loop(p, "i")


def test_fuse_accepts_a_loop_whose_own_iterations_do_not_commute():
    p = _proc("    for i in seq(0, 4):\n        x[0] = x[0] * 2.0\n    for j in seq(0, 4):\n        y[j] = 1.0\n")
    q = fuse(p, p.body()[0], p.body()[1])
    assert len(q.body()) == 1
    assert all(np.array_equal(a, b) for a, b in zip(_run(p), _run(q)))


def test_fuse_refuses_a_first_loop_writing_a_field_the_second_reads():
    p = _proc(
        "    for i in seq(0, 4):\n        split_cfg.k = i\n"
        "    for j in seq(0, 4):\n        y[j] = x[split_cfg.k]\n"
    )
    with pytest.raises(SchedulingError, match="fuse: iterations of the first loop do not commute with iterations of the second"):
        fuse(p, p.body()[0], p.body()[1])


def test_fuse_of_two_ifs_refuses_a_first_if_that_writes_the_field_the_condition_reads():
    p = _proc(
        "    split_cfg.k = 1\n"
        "    if split_cfg.k < 3:\n        split_cfg.k = 5\n"
        "    if split_cfg.k < 3:\n        y[0] = 1.0\n"
    )
    assert _run(p)[1][0] == 0.0
    with pytest.raises(SchedulingError, match="fuse: the first if writes the condition's inputs"):
        fuse(p, p.body()[1], p.body()[2])


def test_fields_are_locations_of_the_summary():
    p = _proc("    split_cfg.k = 2\n    getk(y)\n    setk(3)\n")
    s = p._root.body
    assert [(a.kind, a.idx) for a in accesses_of(s[0]) if a.buf == K] == [("write", None)]
    assert ("read", None) in [(a.kind, a.idx) for a in accesses_of(s[1]) if a.buf == K]
    assert ("write", None) in [(a.kind, a.idx) for a in accesses_of(s[2]) if a.buf == K]
    assert not stmts_commute(s[0], s[1]) and not stmts_commute(s[1], s[2]) and not stmts_commute(s[0], s[2])
    assert not is_idempotent(s[1:])


@pytest.mark.parametrize("body, exposed", [
    # the Gemmini store body: the write hides the field from the read after it
    ("    split_cfg.k = 2\n    y[0] = x[split_cfg.k]\n", False),
    ("    y[0] = x[split_cfg.k]\n    split_cfg.k = 2\n", True),
    ("    split_cfg.k = split_cfg.k + 1\n", True),
    # a loop's body may not run, so its write hides nothing
    ("    for i in seq(0, 2):\n        split_cfg.k = 2\n    y[0] = x[split_cfg.k]\n", True),
    ("    for i in seq(0, split_cfg.k):\n        y[i] = 1.0\n", True),
    ("    getk(y)\n", True),
    ("    setk(2)\n    getk(y)\n", True),  # a call hides nothing
])
def test_exposed_reads(body, exposed):
    assert (K in exposed_reads(_proc(body)._root.body)) is exposed
