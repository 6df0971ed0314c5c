"""What a schedule *does* is independent of how cheaply the edit engine does
it: the benchmark family's rewrite, atomic-edit, line and trace-byte counts
are pinned, and recorded traces still replay to the state they recorded.

The counts and ``parent_traces.json`` (written by running this file as a
script, ``python tests/api/test_trace_invariants.py --write-traces``) move
only when a library schedule or the trace format is changed on purpose.  Last
regenerated by
ISSUE 23 (``schedule_sgemm`` is the register-tiled GEMM with ``k`` inside the
tile: ten more rewrites, twelve more edits, 79 more lines — the unrolled
6x2 micro-tile — and its refused ``lift_scope`` is gone, not hidden):
531 / 616 / 605 / 138 233 before it, with 9 ``recovered`` entries and 26
applied no-ops off the state chain; ``bench/README.md`` still quotes older
numbers.  Since arithmetic types are derived from their operands,
``unsharp@AVX2`` binds its ``f64`` temporaries at ``f64`` and skips one
``set_precision``: 541 / 628 / 684 / 140 468 before that.  Since a trace
links its steps by identity while it records, the 25 applied no-ops that used
to lie off the state chain are not recorded (a ``set_precision`` with nothing
to do returns its input) and no entry carries a ``pre`` / ``post`` digest:
540 / 627 / 684 / 140 189 before that.  Since a loop iterator is bounded by
its trip's interval, a vector tail's lane index simplifies to the tail
iterator: ``dtrmv_utu``'s recorded ``final`` moved, and no count did.  Since
a trace names a procedure by ``procedure_digest`` (its two ends and each
procedure argument, with the argument's name kept for messages; trace
format 3), every recorded trace moved and no entry did: 108 340 trace bytes
before that.
"""
from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))  # the repo root, for bench/

from bench import kernels as K  # noqa: E402  (the benchmark's own kernel catalog)
from repro.api import ReplayCache, replay  # noqa: E402
from repro.ir.printing import procedure_digest  # noqa: E402

TRACES = pathlib.Path(__file__).with_name("parent_traces.json")
RECORDED = ("dswap@AVX2[interleave=2]", "gemmini@Gemmini[tile=16]", "dtrmv_utu@AVX2[cols=2,rows=2]", "sgemm@AVX2[]")


@pytest.fixture(scope="module")
def family():
    """``item -> (pair, unscheduled, scheduled, trace)`` for seed 1."""
    out = {}
    for p in K.family_pairs(random.Random(1)):
        proc = K.parse(p)
        out[p.item] = (p, proc) + p.schedule.apply_traced(proc, p.knobs, cache=ReplayCache())
    return out


def test_family_counts_are_those_of_the_bench_readme(family):
    traces = [t for _, _, _, t in family.values()]
    assert sum(len(t.applied()) for t in traces) == 515  # primitives.rewrites_total
    assert sum(t.total_edits() for t in traces) == 602  # ir.atomic_edits_total
    assert sum(len(str(out).splitlines()) for _, _, out, _ in family.values()) == 684  # ir.lines_after
    assert sum(len(json.dumps(t.to_dict())) for t in traces) == 126_408  # api.trace_bytes
    # no refusal is silent: none left as a bare `failed` entry, each rolled back
    # to a `recovered` one
    entries = [e for t in traces for e in t.entries]
    assert sum(e.outcome == "failed" for e in entries) == 0
    assert sum(e.kind == "recovered" for e in entries) == 8


def test_traces_recorded_at_the_parent_commit_still_replay(family):
    recorded = json.loads(TRACES.read_text())
    assert sorted(recorded) == sorted(RECORDED)
    for item, trace in recorded.items():
        _, proc, out, now = family[item]
        assert procedure_digest(replay(trace, proc)._root) == trace["final"] == procedure_digest(out._root)
        assert now.to_dict() == trace  # and a fresh recording is the same trace, byte for byte


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-traces"]:
        sys.exit("usage: test_trace_invariants.py --write-traces")
    pairs = {p.item: p for p in K.family_pairs(random.Random(1))}
    data = {}
    for item in RECORDED:
        p = pairs[item]
        data[item] = p.schedule.apply_traced(K.parse(p), p.knobs, cache=ReplayCache())[1].to_dict()
    TRACES.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"wrote {TRACES}")
