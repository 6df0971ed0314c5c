"""``backend_check``: the memory annotations of a call must agree with the
callee's, and a ``par`` loop must carry no dependency."""
from __future__ import annotations

import pytest

from repro import proc_from_source
from repro.backend import backend_check
from repro.errors import BackendError
from repro.machines import AVX2

VEC = AVX2.mem_type
TO_REG = proc_from_source("def to_reg(r: [f32][8] @ VEC, s: [f32][8] @ DRAM):\n    for i in seq(0, 8):\n        r[i] = s[i]\n",
                          {"VEC": VEC})
ANY = proc_from_source("def anywhere(r: [f32][8], s: [f32][8]):\n    for i in seq(0, 8):\n        r[i] = s[i]\n")


@pytest.mark.parametrize("body, message", [
    ("    to_reg(x[0:8], x[8:16])\n", "call to to_reg: argument r expects VEC_AVX2 but got DRAM"),
    ("    v: f32[8] @ VEC\n    to_reg(v[0:8], v[0:8])\n", "call to to_reg: argument s expects DRAM but got VEC_AVX2"),
    ("    for i in par(0, 15):\n        x[i + 1] = x[i]\n", "parallel loop i carries a dependency between iterations"),
])
def test_inconsistent_annotations_are_refused(body, message):
    p = proc_from_source("def f(x: f32[16] @ DRAM):\n" + body, {"VEC": VEC, "to_reg": TO_REG})
    with pytest.raises(BackendError, match=message):
        backend_check(p)


def test_a_callee_without_memories_takes_any_buffer():
    p = proc_from_source("def f(x: f32[16] @ DRAM):\n    v: f32[8] @ VEC\n    anywhere(v[0:8], x[0:8])\n",
                         {"VEC": VEC, "anywhere": ANY})
    assert backend_check(p) is None


def test_a_par_loop_touching_configuration_state_is_refused():
    # the iterations commute (each writes the same value), but neither engine
    # runs a par loop that touches configuration state in parallel
    from repro import new_config
    from repro.ir.types import index_t

    cfg = new_config("check_cfg", [("k", index_t)])
    p = proc_from_source("def f(x: f32[16] @ DRAM):\n    for i in par(0, 16):\n        check_cfg.k = 1\n        x[i] = 1.0\n",
                         {"check_cfg": cfg})
    with pytest.raises(BackendError, match="parallel loop i carries a dependency between iterations: par body touches configuration state"):
        backend_check(p)
