"""A rewrite costs O(edit), not O(procedure): the nodes a primitive allocates
are counted (by ``id``) against the version it started from.  Every primitive
here used to deep-copy the procedure — 1 294 nodes for the scheduled sgemm."""
from __future__ import annotations

import pytest

from repro import (
    bind_expr,
    divide_loop,
    expand_dim,
    rename,
    set_memory,
    set_precision,
    simplify,
)
from repro.blas import schedule_sgemm
from repro.ir import nodes as N
from repro.ir.build import struct_hash, walk
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
    assert again._root is simple._root
    assert again is not simple and again.atomic_edit_count() == 1  # still one recorded edit


def test_simplify_rebuilds_only_what_it_simplifies(sgemm):
    out = divide_loop(sgemm, "j", 4, ["jo", "ji"], tail="cut")  # leaves `4 * jo + ji` sums behind
    simp = simplify(out)
    assert "4 * jo + ji" in str(out) and "ji + 4 * jo" in str(simp)
    assert simp._root.body[0].body[0] is out._root.body[0].body[0]  # the io nest: same object
    assert len(fresh(out, simp)) < 40  # the two divided loops and the path to them


def test_hash_memos_of_untouched_subtrees_survive_an_edit(sgemm):
    struct_hash(sgemm._root)  # warm every memo
    out = set_memory(sgemm, "t", "DRAM_STACK")
    new = {id(n) for n in fresh(sgemm, out)}
    kept = [n for n, _ in walk(out._root) if id(n) not in new]
    assert len(kept) > 190
    assert all("_shash_cache" in n.__dict__ for n in kept)
    assert not any("_shash_cache" in n.__dict__ for n, _ in walk(out._root) if id(n) in new)
    # hashing the new version walks only the rebuilt path
    assert struct_hash(out._root) != struct_hash(sgemm._root)
