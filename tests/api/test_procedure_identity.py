"""A procedure has one identity, ``procedure_digest``: a trace's two ends, a
procedure argument in a trace entry or a schedule fingerprint, and the
registry that resolves such an argument on replay all name a procedure by
it, so two procedures that only print alike (same name, same callee names)
are never taken for each other."""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))  # the repo root, for bench/

from bench import kernels as K  # noqa: E402  (the benchmark's own kernel catalog)
from repro import divide_loop, proc_from_source  # noqa: E402
from repro.api import ReplayCache, S, register_proc, replay  # noqa: E402
from repro.api import serialize  # noqa: E402
from repro.ir.printing import procedure_digest  # noqa: E402
from repro.persist import read_record, write_record  # noqa: E402

G = (
    "def g(n: size, x: f32[n] @ DRAM):\n"
    "    assert n % 4 == 0\n"
    "    for i in seq(0, n):\n"
    "        x[i] = 1.0\n"
)
F = "def f(n: size, x: f32[n] @ DRAM):\n    assert n % 4 == 0\n    g(n, x)\n"

# what the subprocess of the cross-process test runs: it rebuilds f, g and g2
# from source, registers them, and replays the traces it is handed on stdin
CHILD = f"""
import json, sys
sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / "src")!r}]
from bench import kernels as K
from repro import divide_loop, proc_from_source
from repro.api import register_proc, replay
g = proc_from_source({G!r})
f = proc_from_source({F!r}, {{"g": g}})
g2 = divide_loop(g, "i", 4, ["io", "ii"], perfect=True)
register_proc(g)
register_proc(g2)
traces = json.load(sys.stdin)
sgemm = replay(traces["sgemm"], K.parse(K.sgemm_pair("AVX2")))
called = replay(traces["call_eqv"], f)
print(json.dumps({{"sgemm": str(sgemm), "call_eqv": str(called.body()[0]._node().proc)}}))
"""


@pytest.fixture
def family():
    """``f`` calls ``g``; ``g2`` and ``g3`` are ``g`` split by 4 and by 2,
    and keep its name."""
    g = proc_from_source(G)
    f = proc_from_source(F, {"g": g})
    g2 = divide_loop(g, "i", 4, ["io", "ii"], perfect=True)
    g3 = divide_loop(g, "i", 2, ["io", "ii"], perfect=True)
    return f, g, g2, g3


def _callee(p):
    return p.body()[0]._node().proc


def test_two_callees_that_share_a_name_get_two_fingerprints_and_two_cache_entries(family):
    f, g, g2, g3 = family
    s2, s3 = S.call_eqv(g, g2), S.call_eqv(g, g3)
    assert s2.fingerprint() != s3.fingerprint()
    cache = ReplayCache()
    assert _callee(s2.apply(f, cache=cache)) is g2
    assert _callee(s3.apply(f, cache=cache)) is g3
    assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}


def test_a_trace_replays_to_the_callee_it_recorded_after_another_of_its_name_registers(family):
    f, g, g2, _ = family
    _, trace = S.call_eqv(g, g2).apply_traced(f)
    register_proc(g)  # what any later encoding of g does
    assert _callee(replay(trace.to_json(), f)) is g2


def test_a_call_eqv_trace_replays_on_a_caller_of_another_parse_of_the_callee(family):
    f, g, g2, _ = family
    _, trace = S.call_eqv(g, g2).apply_traced(f)
    f2 = proc_from_source(F, {"g": proc_from_source(G)})
    assert _callee(replay(trace.to_json(), f2)) is g2


def test_a_procedure_argument_is_encoded_by_its_digest_and_named_for_messages(family):
    f, g, g2, _ = family
    (step,) = S.call_eqv(g, g2).apply_traced(f)[1].applied()
    assert step.args == [{"$proc": procedure_digest(g._root), "name": "g"},
                         {"$proc": procedure_digest(g2._root), "name": "g"}]


def test_fingerprinting_registers_nothing(family, monkeypatch):
    monkeypatch.setattr(serialize, "_PROCS", {})
    f, g, g2, _ = family
    S.call_eqv(g, g2).fingerprint()
    assert serialize._PROCS == {}


def test_every_builtin_instruction_has_its_own_digest(monkeypatch):
    monkeypatch.setattr(serialize, "_PROCS", {})
    monkeypatch.setattr(serialize, "_BUILTINS_INDEXED", False)
    serialize._index_builtin_procs()
    assert len(serialize._PROCS) == 68


def test_a_trace_of_format_2_is_a_counted_miss_of_the_disk_tier(tmp_path):
    f = proc_from_source(G)
    sched = S.divide_loop("i", 4, ["io", "ii"], perfect=True)
    writer = ReplayCache(path=str(tmp_path))
    out = sched.apply(f, cache=writer)
    _, path = writer.entry(f, sched.fingerprint())
    record = read_record(path)
    assert record["trace"]["version"] == 3
    record["trace"]["version"] = 2
    write_record(path, record)
    reader = ReplayCache(path=str(tmp_path))
    assert str(sched.apply(f, cache=reader)) == str(out)
    assert reader.stats()["disk_errors"] == 1 and reader.stats()["misses"] == 1


def test_traces_with_procedure_arguments_replay_in_a_fresh_process(family):
    """Only the digest registry can resolve what the child is handed: it has
    never encoded a procedure, and its ``g`` / ``g2`` are its own objects."""
    f, g, g2, _ = family
    pair = K.sgemm_pair("AVX2")
    sgemm, sgemm_trace = pair.schedule.apply_traced(K.parse(pair), pair.knobs)
    assert any("$proc" in json.dumps(e.args) for e in sgemm_trace.applied())
    _, call_trace = S.call_eqv(g, g2).apply_traced(f)
    traces = json.dumps({"sgemm": sgemm_trace.to_dict(), "call_eqv": call_trace.to_dict()})
    env = dict(os.environ, PYTHONPATH="")
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=traces, capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["sgemm"] == str(sgemm)
    assert got["call_eqv"] == str(g2)
