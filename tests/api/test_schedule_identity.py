"""A Schedule value's identity: its fingerprint is derived once per value and
once per knob binding, and a callable inside it is named by what it does."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

from repro import proc_from_source
from repro.api import ReplayCache, S, knob, lift_op
from repro.api import schedule as schedule_mod
from repro.api.schedule import Seq, Step
from repro.primitives import divide_loop

_gemv = proc_from_source(
    "def gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):\n"
    "    for i in seq(0, M):\n"
    "        for j in seq(0, N):\n"
    "            y[i] += A[i, j] * x[j]\n"
)


def _divide_at(p, target):
    return divide_loop(p, target(p), 8, ["o", "t"])


_split_at = lift_op(_divide_at)  # the callable rides in as the step's argument


def _split(n):
    return _split_at(lambda p: p.find_loop(n))


def _family():
    return S.divide_loop("i", knob("w", 8), ["io", "ii"]) >> S.reorder_loops("ii")


# -- callables ------------------------------------------------------------------


def test_two_closures_of_one_factory_are_two_schedules():
    cache = ReplayCache()
    by_i = _split("i").apply(_gemv, cache=cache)
    by_j = _split("j").apply(_gemv, cache=cache)
    assert by_j is not by_i
    assert "for i in" not in str(by_i) and "for j in" in str(by_i)
    assert "for j in" not in str(by_j) and "for i in" in str(by_j)
    assert str(by_j) == str(_split("j").apply(_gemv))


def test_two_lambdas_on_one_line_differ_and_equal_code_agrees():
    a, b = (lambda p: p.find_loop("i")), (lambda p: p.find_loop("j"))
    assert _split_at(a).fingerprint() != _split_at(b).fingerprint()
    # the same code and captured values, made twice, is the same schedule
    assert _split("i").fingerprint() == _split("i").fingerprint()


def test_defaults_are_part_of_a_callable_identity():
    def make(name):
        def target(p, name=name):
            return p.find_loop(name)

        return _split_at(target)

    assert make("i").fingerprint() != make("j").fingerprint()


def test_a_self_capturing_closure_fingerprints():
    def outer():
        def target(p, depth=0):
            return p.find_loop("i") if depth else target(p, depth + 1)

        return target

    assert _split_at(outer()).fingerprint() == _split_at(outer()).fingerprint()


def _in_child(code: str, seed: str) -> str:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


_LAMBDA_FP = """
from repro.api import lift_op
from repro.primitives import divide_loop
split_at = lift_op(lambda p, target: divide_loop(p, target(p), 8, ["o", "t"]), "split_at")
print(split_at(lambda p: p.find_loop("i") if "i" in {"i", "k"} else None).fingerprint())
"""


def test_a_callable_fingerprint_does_not_follow_the_hash_seed():
    assert len({_in_child(_LAMBDA_FP, seed) for seed in ("1", "2")}) == 1


#: The library schedules' digests: a replay-cache record is filed under one,
#: so a change to the fingerprint encoding strands every record on disk.
LIBRARY_DIGESTS = {
    "repro.halide:blur_schedule": "0bdf42ff43b157f9",
    "repro.halide:unsharp_schedule": "670fc8d2cb2beb9f",
    "repro.blas:level1_schedule": "1738202751ded2e4",
    "repro.blas:level2_schedule": "94bc942d35a857f9",
    "repro.blas:level3_schedule": "1145156b17dce1a5",
    "repro.gemmini:matmul_schedule": "c6c84ee03c035717",
}

_LIBRARY_FPS = """
import importlib, json
refs = %r
print(json.dumps({r: getattr(importlib.import_module(r.split(":")[0]), r.split(":")[1])().fingerprint() for r in refs}))
""" % sorted(LIBRARY_DIGESTS)


def test_library_schedule_digests_are_pinned_whatever_the_hash_seed():
    for seed in ("1", "99"):
        assert json.loads(_in_child(_LIBRARY_FPS, seed)) == LIBRARY_DIGESTS


# -- the memo -------------------------------------------------------------------


def test_equal_but_differently_typed_bindings_get_their_own_digest():
    s = _family()
    got = [s.fingerprint({"w": v}) for v in (1, 1.0, True, "1")]
    assert len(set(got)) == 4
    # each matches a value that never saw the others
    assert got == [_family().fingerprint({"w": v}) for v in (1, 1.0, True, "1")]
    assert s.fingerprint({"w": 0.0}) != s.fingerprint({"w": -0.0})
    assert s.fingerprint({"w": [1]}) != s.fingerprint({"w": [1.0]})


def test_a_repeated_binding_does_not_walk_the_schedule_again(monkeypatch):
    calls = [0]
    walk = Step._fp

    def counting(self):
        calls[0] += 1
        return walk(self)

    monkeypatch.setattr(Step, "_fp", counting)
    s = _family()
    first = s.fingerprint({"w": 4})
    walked = calls[0]
    assert walked == 2  # two steps, once each
    assert s.fingerprint({"w": 4}) == first
    assert s.fingerprint({"w": 16}) != first
    s.check_knobs({"w": 2})
    assert calls[0] == walked


def test_the_digest_memo_is_bounded():
    s = _family()
    for w in range(schedule_mod._DIGEST_LIMIT + 10):
        s.fingerprint({"w": w})
    assert len(s._identity().digests) <= schedule_mod._DIGEST_LIMIT
    assert s.fingerprint({"w": 3}) == _family().fingerprint({"w": 3})


def test_a_seq_does_not_share_the_list_it_was_built_from():
    steps = [S.divide_loop("i", 8, ["io", "ii"]), S.reorder_loops("ii")]
    s = Seq(steps)
    before = s.fingerprint()
    steps.append(S.unroll_loop("ii"))
    steps[0] = S.divide_loop("j", 8, ["jo", "ji"])
    assert isinstance(s.steps, tuple) and len(s.steps) == 2
    assert s.steps[0].args[0] == "i"
    assert s.fingerprint() == before
    assert before == Seq([S.divide_loop("i", 8, ["io", "ii"]), S.reorder_loops("ii")]).fingerprint()


def test_threads_fingerprinting_one_fresh_value_agree_with_a_serial_run():
    bindings = [{"w": w} for w in (2, 4, 8, 16)] + [{"w": 4.0}, {"w": True}, {}, None]
    reference = _family()
    want = [reference.fingerprint(b) for b in bindings]
    shared = _family()
    barrier = threading.Barrier(8)
    got = {}

    def work(t):
        barrier.wait()
        got[t] = [shared.fingerprint(bindings[(t + i) % len(bindings)]) for i in range(len(bindings) * 5)]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t, seen in got.items():
        assert seen == [want[(t + i) % len(bindings)] for i in range(len(bindings) * 5)]
