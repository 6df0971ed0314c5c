"""What a schedule *does* is independent of how cheaply the edit engine does
it: the benchmark family's rewrite, atomic-edit, line and trace-byte counts
are exactly those in ``bench/README.md``, and traces recorded before the
structural-sharing refactor still replay to the state they recorded.

``parent_traces.json`` was written by running this file as a script
(``python tests/api/test_trace_invariants.py --write-traces``) at the commit
before the refactor.
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
from repro.api.trace import state_hash  # noqa: E402

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
    assert sum(len(t.applied()) for t in traces) == 862  # primitives.rewrites_total
    assert sum(t.total_edits() for t in traces) == 914  # ir.atomic_edits_total
    assert sum(len(str(out).splitlines()) for _, _, out, _ in family.values()) == 416  # ir.lines_after
    assert sum(len(json.dumps(t.to_dict())) for t in traces) == 249_189  # api.trace_bytes


def test_traces_recorded_at_the_parent_commit_still_replay(family):
    recorded = json.loads(TRACES.read_text())
    assert sorted(recorded) == sorted(RECORDED)
    for item, trace in recorded.items():
        _, proc, out, now = family[item]
        assert state_hash(replay(trace, proc)) == trace["final"] == state_hash(out)
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
