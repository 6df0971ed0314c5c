"""Effect / dependence analysis tests."""
from __future__ import annotations

from repro.analysis import (
    accesses_of, is_idempotent, loop_iterations_commute, read_buffers,
    stmts_commute, written_buffers,
)


def test_accesses_and_buffers(gemv):
    loop = gemv.find_loop("i")._node()
    accs = accesses_of([loop])
    bufs = {a.buf.name for a in accs}
    assert {"A", "x", "y"} <= bufs
    assert {b.name for b in written_buffers([loop])} == {"y"}
    assert "x" in {b.name for b in read_buffers([loop])}


def test_stmts_commute(stages):
    loops = [c._node() for c in stages.find("for i in _: _", many=True)]
    # the second loop reads tmp written by the first: they do not commute
    assert not stmts_commute(loops[0], loops[1])


def test_loop_iterations_commute(gemv, copy2d, dot):
    # gemv's i loop writes y[i]: iterations commute
    assert loop_iterations_commute(gemv.find_loop("i")._node(), gemv._root)
    # copy2d inner loop: iterations commute
    assert loop_iterations_commute(copy2d.find_loop("j")._node(), copy2d._root)
    # dot's loop is a pure reduction: commutes
    assert loop_iterations_commute(dot.find_loop("i")._node(), dot._root)


def test_prefix_sum_does_not_commute():
    from repro import proc_from_source
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i + 1] = x[i] + 1.0\n"
    )
    assert not loop_iterations_commute(p.find_loop("i")._node(), p._root)


def test_is_idempotent(gemv, copy2d):
    copy_body = copy2d.find_loop("j")._node().body
    assert is_idempotent(copy_body)
    gemv_body = gemv.find_loop("j")._node().body
    assert not is_idempotent(gemv_body)  # reductions are not idempotent
