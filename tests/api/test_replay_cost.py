"""What recording and replay cost and what they keep: recording links its
steps by identity and hashes a state only at the trace's two ends and at a
link that is not an identity, replay hashes the two ends only, a step that
fails or a non-scheduling error is reported as such, and the result is one
step after its input, as a cold apply's is."""
from __future__ import annotations

import functools
import gc
import pathlib
import sys
import weakref

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))  # the repo root, for bench/

from bench import kernels as K  # noqa: E402  (the benchmark's own kernel catalog)
from repro import obs, proc_from_source  # noqa: E402
from repro.api import ReplayError, S, replay  # noqa: E402
from repro.api import schedule as schedule_module  # noqa: E402
from repro.api import trace as T  # noqa: E402
from repro.blas import SGEMM  # noqa: E402
from repro.primitives import _base  # noqa: E402

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[i] = x[i]\n"
)


@pytest.fixture
def p():
    return proc_from_source(SRC)


@pytest.fixture
def recorded(p):
    sched = S.divide_loop("i", 8, ["io", "ii"], tail="cut") >> S.divide_loop("io", 2, ["ioo", "ioi"], tail="cut")
    return sched.apply_traced(p)[1].to_dict()


def _steps(trace):
    return [e for e in trace["entries"] if e["kind"] == "primitive"]


def _diverge_step_0(trace):
    """Step 0 now names its loops ``jo``/``ji``: step 1's ``io`` is not found."""
    _steps(trace)[0]["args"][2] = ["jo", "ji"]


def _count_hashes(monkeypatch):
    """The roots recording and replay digest (``procedure_digest``), in
    order, from here on."""
    hashed, inner = [], T.procedure_digest

    def counted(root):
        hashed.append(root)
        return inner(root)

    monkeypatch.setattr(T, "procedure_digest", counted)
    monkeypatch.setattr(schedule_module, "procedure_digest", counted)
    return hashed


def test_recording_and_replay_hash_the_two_ends_and_the_one_link_that_is_not_an_identity(monkeypatch):
    pair = K.sgemm_pair("AVX2")
    proc = K.parse(pair)
    hashed = _count_hashes(monkeypatch)
    out, trace = pair.schedule.apply_traced(proc, pair.knobs)
    # ``schedule_sgemm`` schedules the global SGEMM, which prints like ``proc``
    assert {id(r) for r in hashed} == {id(proc._root), id(out._root), id(SGEMM._root)}
    del hashed[:]
    again = replay(trace.to_json(), proc)
    assert len(trace.applied()) > 20
    assert hashed == [proc._root, again._root]


class _Versions(obs.Watcher):
    """Weak references to the version each user-level primitive made."""

    def __init__(self):
        self.made = []

    def on_primitive_commit(self, name, depth, result):
        if not depth:
            self.made.append(weakref.ref(result))


def test_a_replayed_result_is_one_step_after_its_input(p, recorded):
    with _Versions() as seen:
        out = replay(recorded, p)
    gc.collect()
    assert len(seen.made) == 2 and [v() for v in seen.made] == [None, None]
    assert out._lineage() == [out, p]
    assert out.forward(p.find_loop("i")).name() == "ioo"


def test_a_step_that_no_longer_applies_is_named(p, recorded):
    _diverge_step_0(recorded)
    with pytest.raises(ReplayError, match=r"step 1 \(divide_loop\) failed during replay: .*'io'"):
        replay(recorded, p)


def _failing_second_call(monkeypatch):
    real = _base.PRIMITIVE_REGISTRY["divide_loop"]
    calls = []

    @functools.wraps(real)
    def flaky(proc, *args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("not a scheduling error")
        return real(proc, *args, **kwargs)

    monkeypatch.setitem(_base.PRIMITIVE_REGISTRY, "divide_loop", flaky)


def test_after_a_divergence_a_non_exo_error_is_raised_unchanged(monkeypatch, p, recorded):
    _diverge_step_0(recorded)
    _failing_second_call(monkeypatch)
    with pytest.raises(RuntimeError, match="not a scheduling error"):
        replay(recorded, p)


def test_without_a_divergence_a_non_exo_error_is_raised_unchanged(monkeypatch, p, recorded):
    _failing_second_call(monkeypatch)
    with pytest.raises(RuntimeError, match="not a scheduling error"):
        replay(recorded, p)


def test_an_unknown_primitive_is_refused_before_the_final_state_is_checked(p, recorded):
    _steps(recorded)[0]["args"][1] = 4  # the state step 1 runs on diverges ...
    _steps(recorded)[1]["primitive"] = "no_such_primitive"  # ... and step 1 cannot run at all
    with pytest.raises(ReplayError, match="step 1: unknown primitive 'no_such_primitive'"):
        replay(recorded, p)
