"""A rewrite costs O(edit), not O(procedure): the nodes a primitive allocates
are counted (by ``id``) against the version it started from.  Every primitive
here used to deep-copy the procedure — 1 294 nodes for the scheduled sgemm."""
from __future__ import annotations

import pytest

from repro import (
    bind_expr,
    divide_loop,
    expand_dim,
    fission,
    proc_from_source,
    rename,
    set_memory,
    set_precision,
    simplify,
    unroll_loop,
)
from repro.blas import schedule_sgemm
from repro.ir import nodes as N
from repro.ir.build import walk
from repro.machines import AVX2


@pytest.fixture(scope="module")
def sgemm():
    """Scheduled sgemm with one scalar temporary ``t`` bound in the ``ji`` loop
    of its column tail (the vector buffers are windowed, which ``expand_dim``
    refuses)."""
    p = schedule_sgemm(AVX2)
    return bind_expr(p, p.find("A[_] * B[_]"), "t")


def fresh(before, after):
    """The nodes of ``after``'s body that are not nodes of ``before``."""
    old = {id(n) for n, _ in walk(before._root)}
    return [n for n, _ in walk(after._root) if id(n) not in old]


def depth_of(p, pattern) -> int:
    return len(p.find(pattern)._path)


def test_the_fixture_is_the_size_the_bounds_are_about(sgemm):
    assert sum(1 for _ in walk(sgemm._root)) > 190
    assert depth_of(sgemm, "t: _") == 5


def test_rename_allocates_one_node(sgemm):
    out = rename(sgemm, "other")
    assert [type(n) for n in fresh(sgemm, out)] == [N.ProcDef]
    assert out._root.body is sgemm._root.body and out._root.args is sgemm._root.args


def test_set_memory_copies_the_path_to_the_allocation(sgemm):
    out = set_memory(sgemm, "t", "DRAM_STACK")
    new = fresh(sgemm, out)
    # the root, one statement per level down to the allocation, the allocation
    assert len(new) == depth_of(sgemm, "t: _") + 1
    assert all(isinstance(n, (N.ProcDef, N.For, N.Alloc)) for n in new)


def test_set_precision_touches_the_accesses_and_their_ancestors(sgemm):
    out = set_precision(sgemm, "t", "f64")
    new = fresh(sgemm, out)
    # t's allocation, its write and its one read, each with the statements and
    # expressions above them; the three share every ancestor above the loop body
    assert len(new) <= 3 + depth_of(sgemm, "t = _") + 2
    assert not any(isinstance(n, N.Call) for n in new)  # the vector nest is untouched


def test_expand_dim_touches_the_accesses_and_their_ancestors(sgemm):
    out = expand_dim(sgemm, "t", 16, "ji")
    new = fresh(sgemm, out)
    # as above, plus the shared index expression
    assert len(new) <= 3 + depth_of(sgemm, "t = _") + 2 + 1
    assert "t[ji] = A[" in str(out) and "t: f32[16]" in str(out)


def test_divide_loop_rebuilds_the_loop_it_divides_and_the_path_to_it(sgemm):
    loop = sgemm.find_loop("j")
    body_nodes = sum(1 for _ in walk(loop._node()))
    out = divide_loop(sgemm, loop, 4, ["jo", "ji"], tail="cut")
    # two copies of the loop (main + tail), a handful of bound expressions
    # each, and the path above; nothing proportional to the procedure
    assert len(fresh(sgemm, out)) <= 2 * body_nodes + 30 + len(loop._path)
    first_nest = out._root.body[0].body[0]
    assert first_nest is sgemm._root.body[0].body[0]  # the io nest: same object


def test_simplify_of_a_simple_procedure_allocates_nothing(sgemm):
    simple = simplify(sgemm)
    again = simplify(simple)
    assert fresh(simple, again) == []
    assert again is simple  # a session that changed nothing is no edit


def test_simplify_rebuilds_only_what_it_simplifies(sgemm):
    out = divide_loop(sgemm, "j", 4, ["jo", "ji"], tail="cut")  # leaves `4 * jo + ji` sums behind
    simp = simplify(out)
    assert "4 * jo + ji" in str(out) and "ji + 4 * jo" in str(simp)
    assert simp._root.body[0].body[0] is out._root.body[0].body[0]  # the io nest: same object
    assert len(fresh(out, simp)) < 40  # the two divided loops and the path to them


def test_print_memos_of_untouched_subtrees_survive_an_edit(sgemm):
    str(sgemm)  # warm every leaf statement's memoised lines
    out = set_memory(sgemm, "t", "DRAM_STACK")
    new = {id(n) for n in fresh(sgemm, out)}
    leaves = [n for n, _ in walk(out._root) if isinstance(n, N.Stmt) and not isinstance(n, (N.For, N.If))]
    kept = [s for s in leaves if id(s) not in new]
    assert len(kept) > 80
    assert all("_lines" in s.__dict__ for s in kept)
    assert not any("_lines" in s.__dict__ for s in leaves if id(s) in new)
    # printing the new version renders only the rebuilt path
    assert str(out) != str(sgemm)


# A primitive pays for the statements it touches: each count below grew with
# the procedure or the loop before.


def test_fission_returns_the_second_half_as_the_same_objects():
    p = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        x[i] = 1.0\n"
        "        y[i] = x[i]\n"
        "        x[i] += y[i]\n"
        "        y[i] += 2.0\n"
    )
    after = p._root.body[0].body[1:]
    out = fission(p, p.body()[0].body()[0].after())
    first, second = out._root.body
    assert second.body == after  # nodes compare by identity
    assert second.iter is p._root.body[0].iter and first.iter is not second.iter
    assert str(out).count("for i in seq(0, n):") == 2


def test_expand_dim_rewrites_only_the_scope_of_the_allocation(sgemm, monkeypatch):
    import repro.primitives.buffers as B

    seen = []
    real = B.map_exprs
    monkeypatch.setattr(B, "map_exprs", lambda node, fn: real(node, lambda e: (seen.append(e), fn(e))[1]))
    alloc = sgemm.find("t: _")
    block = {id(n) for s in alloc.parent()._node().body for n, _ in walk(s)}
    expand_dim(sgemm, alloc, 16, "ji")
    assert seen and all(id(e) in block for e in seen)
    assert len(block) < sum(1 for _ in walk(sgemm._root)) // 4


def test_unroll_loop_rewrites_each_copy_once(monkeypatch):
    import repro.ir.build as B

    p = proc_from_source(
        "def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        x[i] = 1.0\n"
        "        y[i] = x[i]\n"
    )
    calls = []
    real = B.map_exprs
    monkeypatch.setattr(B, "map_exprs", lambda node, fn: (calls.append(node), real(node, fn))[1])
    out = unroll_loop(p, "i")
    assert "y[3] = x[3]" in str(out)
    assert len(calls) == 4


def test_a_second_access_summary_of_an_unchanged_statement_visits_no_node(monkeypatch):
    import repro.analysis.effects as E

    visited = []
    real = E._expr_accesses  # the summary's one visitor of expression nodes
    monkeypatch.setattr(E, "_expr_accesses", lambda e, out: (visited.append(e), real(e, out))[1])
    loop = proc_from_source(
        "def f(n: size, x: f32[n] @ DRAM):\n    for i in seq(0, n):\n        x[i] += x[i] * 2.0\n"
    )._root.body[0]
    first = E.accesses_of(loop)
    assert visited
    visited.clear()
    assert E.accesses_of(loop) == first and visited == []
