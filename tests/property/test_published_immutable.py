"""A published procedure never changes, and the scheduled programs are the
ones the parent commit produced.

Every level-1 / level-2 / sgemm / blur / unsharp / Gemmini schedule runs once
(module fixture) with two observers installed:

* every ``Procedure`` ever constructed is kept together with its ``str()``
  and ``struct_hash`` *at creation*; at the end all of them must read the
  same — an aliasing leak through a node shared between versions fails here,
  not in a user's kernel;
* every assignment to a dataclass field of an IR node after its constructor
  returned is recorded; there must be none.

The final ``state_hash`` of every (kernel, target) is compared with
``golden_state_hashes.json``, written by running this file as a script
(``python tests/property/test_published_immutable.py --write-golden``) at the
commit *before* the structural-sharing refactor.
"""
from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.api import ReplayCache, lift_op
from repro.api.trace import state_hash
from repro.blas import (
    LEVEL1_KERNELS,
    LEVEL2_KERNELS,
    SGEMM,
    level1_schedule,
    level2_schedule,
    schedule_sgemm,
)
from repro.core.procedure import Procedure
from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from repro.ir import nodes as N
from repro.ir.build import struct_hash, walk
from repro.machines import AVX2, AVX512

GOLDEN = pathlib.Path(__file__).with_name("golden_state_hashes.json")
MACHINES = {"AVX2": AVX2, "AVX512": AVX512}

_sgemm = lift_op(lambda p, machine: schedule_sgemm(machine), "schedule_sgemm")


def _precision(name: str) -> str:
    return "f64" if name.startswith("d") else "f32"


def cases():
    """``(label, procedure, schedule)`` for every (kernel, target)."""
    for mname, m in MACHINES.items():
        for k, p in LEVEL1_KERNELS.items():
            yield f"{k}@{mname}", p, level1_schedule("i", _precision(k), m)
    # level 2 is ten times the work of level 1: each kernel on one target,
    # alternating, so both targets see every kind
    for i, (k, p) in enumerate(LEVEL2_KERNELS.items()):
        mname = ("AVX2", "AVX512")[i % 2]
        yield f"{k}@{mname}", p, level2_schedule("i", _precision(k), MACHINES[mname])
    for mname, m in MACHINES.items():
        yield f"sgemm@{mname}", SGEMM, _sgemm(m)
        yield f"blur@{mname}", make_blur(), blur_schedule(m)
        yield f"unsharp@{mname}", make_unsharp(), unsharp_schedule(m)
    yield "blur@default", make_blur(), blur_schedule()
    yield "unsharp@default", make_unsharp(), unsharp_schedule()
    yield "gemmini@Gemmini", make_matmul_kernel(K=64), matmul_schedule()


def run_all():
    return {
        label: state_hash(sched.apply(p, {}, cache=ReplayCache()))
        for label, p, sched in cases()
    }


_NODE_CLASSES = [c for c in vars(N).values() if isinstance(c, type) and hasattr(c, "__dataclass_fields__")]


def _strip_memos(root) -> None:
    """Drop everything memoised on the nodes of ``root`` (all instance state
    that is not a dataclass field), so that printing and hashing start from
    the fields again."""
    tops = [root] + list(root.args) + list(root.preds)
    tops += [e for a in root.args for e in getattr(a.typ, "shape", ())]
    for top in tops:
        for node, _ in walk(top):
            for memo in set(node.__dict__) - set(N.FIELDS[type(node)]):
                del node.__dict__[memo]
            if isinstance(node, N.Alloc):
                tops.extend(getattr(node.typ, "shape", ()))


@pytest.fixture(scope="module")
def observed():
    published, assigned = [], set()
    mp = pytest.MonkeyPatch()
    real_init = Procedure.__init__

    def init(self, root, **kw):
        real_init(self, root, **kw)
        published.append((self, str(self), struct_hash(self._root)))

    def guarded_setattr(self, name, value):
        if name in self.__dict__ and name in type(self).__dataclass_fields__:
            frame = sys._getframe(1)
            assigned.add(f"{type(self).__name__}.{name} at {frame.f_code.co_filename}:{frame.f_lineno}")
        object.__setattr__(self, name, value)

    mp.setattr(Procedure, "__init__", init)
    for cls in _NODE_CLASSES:
        mp.setattr(cls, "__setattr__", guarded_setattr, raising=False)
    try:
        finals = run_all()
    finally:
        mp.undo()
    return finals, published, assigned


def test_scheduled_programs_match_the_parent_commit(observed):
    finals, _, _ = observed
    assert finals == json.loads(GOLDEN.read_text())


def test_no_published_procedure_ever_changes(observed):
    _, published, _ = observed
    assert len(published) > 2000  # every intermediate, not only the results
    # what is memoised on the nodes could hide a change: print and hash from
    # the fields again
    for p, _, _ in published:
        _strip_memos(p._root)
    changed = [p.name() for p, text, _ in published if str(p) != text]
    assert not changed, f"{len(changed)} published procedures print differently now: {changed[:5]}"
    stale = [p.name() for p, _, h in published if struct_hash(p._root) != h]
    assert not stale, f"{len(stale)} procedures hash differently now: {stale[:5]}"


def test_no_ir_field_is_assigned_after_construction(observed):
    _, _, assigned = observed
    assert not assigned, f"fields assigned in place at {len(assigned)} sites, e.g. {sorted(assigned)[:8]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: test_published_immutable.py --write-golden")
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
