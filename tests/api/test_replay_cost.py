"""What a replay costs and what it keeps: the state chain is hashed at its two
ends only, the states in between are hashed only to say where a failed replay
diverged (with the messages a step-by-step check gave), and the result is one
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
from repro.api import trace as T  # noqa: E402
from repro.primitives import _base  # noqa: E402

SRC = (
    "def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        y[i] = x[i]\n"
)
DIVERGED = r"step 1 \(divide_loop\): replay state diverged from the recorded chain"


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
    """Step 0 now names its loops ``jo``/``ji``: the state step 1 runs on is
    not its recorded ``pre``, and step 1's ``io`` is not found."""
    _steps(trace)[0]["args"][2] = ["jo", "ji"]


def test_replay_hashes_the_state_chain_at_its_two_ends(monkeypatch):
    pair = K.sgemm_pair("AVX2")
    proc = K.parse(pair)
    _, trace = pair.schedule.apply_traced(proc, pair.knobs)
    hashed, inner = [], T.state_hash
    monkeypatch.setattr(T, "state_hash", lambda q: hashed.append(q._root) or inner(q))
    out = replay(trace.to_json(), proc)
    assert len(T._chain(trace)) > 20
    assert hashed == [proc._root, out._root]


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


def test_a_divergence_is_reported_before_a_later_step_that_fails(p, recorded):
    _diverge_step_0(recorded)
    with pytest.raises(ReplayError, match=DIVERGED):
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


def test_a_divergence_is_reported_before_a_later_non_exo_error(monkeypatch, p, recorded):
    _diverge_step_0(recorded)
    _failing_second_call(monkeypatch)
    with pytest.raises(ReplayError, match=DIVERGED):
        replay(recorded, p)


def test_without_a_divergence_a_non_exo_error_is_raised_unchanged(monkeypatch, p, recorded):
    _failing_second_call(monkeypatch)
    with pytest.raises(RuntimeError, match="not a scheduling error"):
        replay(recorded, p)


def test_an_unknown_primitive_is_refused_before_its_own_state_is_checked(p, recorded):
    _steps(recorded)[0]["args"][1] = 4  # the state step 1 runs on diverges ...
    _steps(recorded)[1]["primitive"] = "no_such_primitive"  # ... and step 1 cannot run at all
    with pytest.raises(ReplayError, match="step 1: unknown primitive 'no_such_primitive'"):
        replay(recorded, p)
