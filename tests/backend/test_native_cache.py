"""Persistent compiled-artifact cache: warm hits, corruption recovery,
cc-missing fallback, cross-process key stability and option-change eviction."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import obs, proc_from_source
from repro.backend import native
from repro.backend.codegen import CodegenOptions
from repro.blas import LEVEL1_KERNELS, optimize_level_1
from repro.core.procedure import Procedure
from repro.interp import interpreter, make_random_args, run_proc
from repro.ir.nodes import InstrInfo
from repro.machines import AVX2

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private, empty artifact cache (the counters start fresh in every
    test: see the ``obs.reset()`` fixture in ``tests/conftest.py``)."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    yield tmp_path
    native.clear_memo()


def _so_count(cache) -> int:
    return len([f for f in os.listdir(cache) if f.endswith(".so")])


def _saxpy():
    return optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)


def _run_native(proc, seed=0):
    args = make_random_args(proc, {"n": 173}, seed=seed)
    native.compile_native(proc._root if hasattr(proc, "_root") else proc)(args)
    return args


@needs_cc
def test_cold_then_warm_disk_hit(cache):
    sched = _saxpy()
    _run_native(sched)
    assert obs.count("native.compiles") == 1
    assert obs.count("native.disk_hits") == 0

    # same process, memo satisfies the second build
    _run_native(sched)
    assert obs.count("native.memo_hits") == 1

    # simulate a new process: drop the memo, keep the disk artifacts
    native.clear_memo()
    _run_native(sched)
    stats = obs.counters("native.")
    assert stats["compiles"] == 1  # no recompile
    assert stats["disk_hits"] == 1


@needs_cc
def test_warm_run_matches_interpreter(cache):
    sched = _saxpy()
    _run_native(sched)
    native.clear_memo()
    got = _run_native(sched, seed=3)
    ref = make_random_args(sched, {"n": 173}, seed=3)
    run_proc(sched, backend="interp", **ref)
    np.testing.assert_allclose(got["y"], ref["y"], rtol=1e-5, atol=1e-6)


@needs_cc
def test_corrupt_artifact_evicted_and_rebuilt(cache):
    # plant a truncated .so at the key's slot *before* any load, as if a
    # previous process died mid-download or the disk filled up
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    key = native.artifact_key(root)
    with open(cache / f"{key}.so", "wb") as f:
        f.write(b"\x7fELF not really")

    got = _run_native(sched, seed=5)
    stats = obs.counters("native.")
    assert stats["corrupt_evicted"] == 1
    assert stats["disk_hits"] == 0
    assert stats["compiles"] == 1  # rebuilt after eviction

    ref = make_random_args(sched, {"n": 173}, seed=5)
    run_proc(sched, backend="interp", **ref)
    np.testing.assert_allclose(got["y"], ref["y"], rtol=1e-5, atol=1e-6)


def test_cc_missing_records_fallback_event(cache, monkeypatch, axpy):
    monkeypatch.setattr(native, "find_cc", lambda: None)
    args = make_random_args(axpy, {"n": 64}, seed=1)
    expect = args["y"] + args["a"] * args["x"]

    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-6)

    # the degradation is recorded as a structured event, not a warning
    assert obs.count("fallback.cc-missing") == 1
    (ev,) = [e for e in obs.events() if e.reason == "cc-missing"]
    assert ev.stage == "c->compiled" and ev.proc == "_axpy"

    # every degraded call is counted — no once-per-process suppression
    args2 = make_random_args(axpy, {"n": 64}, seed=2)
    run_proc(axpy, backend="c", **args2)
    assert obs.count("fallback.cc-missing") == 2


@needs_cc
def test_artifact_key_stable_across_processes(cache):
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    here = native.artifact_key(root)

    script = (
        "from repro.blas import LEVEL1_KERNELS, optimize_level_1\n"
        "from repro.machines import AVX2\n"
        "from repro.backend.native import artifact_key\n"
        "s = optimize_level_1(LEVEL1_KERNELS['saxpy'], 'i', 'f32', AVX2, 2)\n"
        "print(artifact_key(s._root if hasattr(s, '_root') else s))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    there = out.stdout.strip()
    assert here == there


@needs_cc
def test_option_change_misses_and_prune_evicts_stale(cache, monkeypatch):
    sched = _saxpy()
    root = sched._root if hasattr(sched, "_root") else sched
    plain = CodegenOptions()
    noinstr = CodegenOptions(intrinsics=False)
    assert native.artifact_key(root, plain) != native.artifact_key(root, noinstr)

    # a changed codegen option is a different key → fresh compile, and with a
    # cache bound of one entry the stale artifact is evicted on the way out
    monkeypatch.setattr(native, "MAX_CACHE_ENTRIES", 1)
    native.compile_native(root, plain)
    native.compile_native(root, noinstr)
    stats = obs.counters("native.")
    assert stats["compiles"] == 2
    assert stats["pruned"] == 1
    assert _so_count(cache) == 1


# ---------------------------------------------------------------------------
# Warm path: the identity tier in front of the artifact-key tier (ISSUE 12)
# ---------------------------------------------------------------------------


def _par_axpy(axpy):
    from repro.primitives import parallelize_loop

    return parallelize_loop(axpy, "i")


@needs_cc
def test_cold_call_lowers_once_and_warm_call_not_at_all(cache, emits):
    sched = _saxpy()
    first = native.compile_native(sched)
    assert len(emits) == 1  # not a second time for the key
    assert native.compile_native(sched) is first
    assert native.compile_native(sched._root) is first  # Procedure or root
    assert len(emits) == 1
    assert obs.count("native.memo_hits") == 2


@needs_cc
def test_clear_memo_forces_a_disk_re_resolve(cache, emits):
    sched = _saxpy()
    native.compile_native(sched)
    native.clear_memo()
    again = native.compile_native(sched)
    stats = obs.counters("native.")
    assert (stats["compiles"], stats["disk_hits"], stats["memo_hits"]) == (1, 1, 0)
    # the identity tier was dropped with the rest, and the .so says what it
    # is: the disk hit lowers nothing
    assert len(emits) == 1
    assert _so_count(cache) == 1
    assert native.compile_native(sched) is again


@needs_cc
def test_structurally_equal_procedures_share_one_artifact(cache, emits):
    a, b = _saxpy(), _saxpy()
    assert a._root is not b._root
    ka, kb = native.compile_native(a), native.compile_native(b)
    assert ka is kb  # through the key tier: b's root was never seen
    assert len(emits) == 1  # and its key took no lowering
    stats = obs.counters("native.")
    assert (stats["compiles"], stats["memo_hits"]) == (1, 1)
    assert _so_count(cache) == 1
    # and from now on b is warm by identity as well
    assert native.compile_native(b) is ka
    assert len(emits) == 1


@needs_cc
def test_resolved_options_are_never_conflated(cache, emits, axpy):
    from repro.guard import inject

    if not native.openmp_supported(native.find_cc()):
        pytest.skip("toolchain cannot build with -fopenmp")
    par = _par_axpy(axpy)
    with_omp = native.compile_native(par)
    assert with_omp._omp_set is not None
    with inject("omp-missing"):
        # same root, but the options resolve to openmp=False: a different
        # kernel, never the warm OpenMP one
        without = native.compile_native(par)
        assert without is not with_omp and without._omp_set is None
        assert without.key != with_omp.key
        assert native.compile_native(par) is without
    assert native.compile_native(par) is with_omp
    assert len(emits) == 2
    # explicit options take their own slot too
    noinstr = native.compile_native(par, CodegenOptions(intrinsics=False))
    assert noinstr is not with_omp
    assert native.compile_native(par, CodegenOptions(intrinsics=False)) is noinstr


@needs_cc
def test_artifact_key_format_is_unchanged(cache):
    """The on-disk key is its documented parts and nothing else, rebuilt here
    from them.  ``CODEGEN_VERSION`` is 6: units export their calling
    convention, divide by powers of two with shifts, include only the C
    library they call and refuse to inline a callee that writes a scalar
    argument, so artifacts of older checkouts are stale.  ``proc``
    names the procedure, not its C: for one that calls nothing, whose every
    name means its innermost binder, it is the digest of its ``state_hash``
    alone."""
    import hashlib

    from repro.api.trace import state_hash
    from repro.backend.codegen import CODEGEN_VERSION
    from repro.persist import machine_id

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert CODEGEN_VERSION == 6
    plain = LEVEL1_KERNELS["saxpy"]
    assert native.procedure_digest(plain._root) == sha(state_hash(plain))
    root = _saxpy()._root  # calls @instr procedures: their digests are in its own
    cc = native.find_cc()
    want = sha(
        "|".join(
            [
                f"codegen={CODEGEN_VERSION}",
                f"proc={native.procedure_digest(root)}",
                "opts=intrinsics=1;opt=-O3;march=native;fp-contract=off;omp=0",
                f"cc={native.cc_version(cc)}",
                f"machine={machine_id()}",
            ]
        )
    )[:32]
    assert native.artifact_key(root) == want
    assert native.compile_native(root).key == want
    assert os.path.exists(cache / f"{want}.so")


@needs_cc
def test_identity_tier_does_not_keep_a_procedure_alive(cache):
    import gc
    import weakref

    sched = _saxpy()
    kernel = native.compile_native(sched)
    gone = weakref.ref(sched._root)
    del sched
    gc.collect()
    assert gone() is None
    # the kernel outlives the procedure, through the key tier
    assert native.compile_native(_saxpy()) is kernel


@needs_cc
def test_eight_threads_on_one_procedure_get_one_object(cache, emits):
    import threading

    sched = _saxpy()
    got, errors = [], []
    barrier = threading.Barrier(8)

    def worker():
        try:
            barrier.wait(timeout=30)
            for _ in range(200):
                got.append(native.compile_native(sched))
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors[:3]
    assert not any(t.is_alive() for t in threads)
    # cold start included: threads that lost the build race adopted the
    # winner's handle
    assert len(got) == 1600 and len({id(k) for k in got}) == 1
    stats = obs.counters("native.")
    assert stats["memo_hits"] + stats["disk_hits"] + stats["compiles"] == 1600
    assert _so_count(cache) == 1


@needs_cc  # no real compiler is used, but an armed cc-missing fault hides the fake one too
def test_compiler_lookup_memo_follows_the_file_system(tmp_path, monkeypatch):
    """The ``which`` memo never outlives the compiler it names, and
    ``clear_memo`` drops it."""
    fake = tmp_path / "fakecc"
    fake.write_text("#!/bin/sh\n")
    fake.chmod(0o755)
    monkeypatch.setenv("CC", "fakecc")
    monkeypatch.setenv("PATH", str(tmp_path))
    native.clear_memo()
    assert native.find_cc() == str(fake)
    assert native.find_cc() == str(fake)  # memoised
    assert len(native._which_memo) == 1
    fake.unlink()
    assert native.find_cc() is None  # a stale hit is looked up afresh
    assert not native._which_memo
    fake.write_text("#!/bin/sh\n")
    fake.chmod(0o755)
    assert native.find_cc() == str(fake)
    native.clear_memo()
    assert not native._which_memo


# ---------------------------------------------------------------------------
# The key names the procedure, not its C: sound without lowering
# ---------------------------------------------------------------------------


@needs_cc
def test_a_key_and_a_reload_lower_nothing(cache, emits):
    sched = _saxpy()
    key = native.artifact_key(sched)
    assert emits == []
    assert native.compile_native(sched).key == key
    assert emits == ["saxpy"]  # lowered once, because cc was about to run
    native.clear_memo()  # what a new process starts with
    args = make_random_args(sched, {"n": 173}, seed=2)
    run_proc(sched, backend="c", **args)
    assert obs.count("native.disk_hits") == 1 and obs.counters("fallback.") == {}
    assert emits == ["saxpy"]


def _calls_bump(step: float):
    bump = proc_from_source(f"def bump(x: [f32][1] @ DRAM):\n    x[0] += {step}\n")
    return proc_from_source(
        "def twice(x: f32[4] @ DRAM):\n    bump(x[0:1])\n    bump(x[2:3])\n", {"bump": bump}
    )


@needs_cc
def test_a_called_procedure_s_body_is_part_of_the_key(cache):
    one, two = _calls_bump(1.0), _calls_bump(2.0)
    assert str(one) == str(two)  # the caller prints alike
    assert native.artifact_key(one) != native.artifact_key(two)
    # so the second never loads the first's artifact
    for proc, want in ((one, [1, 0, 1, 0]), (two, [2, 0, 2, 0])):
        x = np.zeros(4, np.float32)
        native.compile_native(proc)({"x": x})
        assert x.tolist() == want
    assert _so_count(cache) == 2


def _through_load(template: str):
    """``y[0:8] = x[0:8]`` through an ``@instr`` vector load named ``load8``
    whose C template is ``template``."""
    load = proc_from_source(
        "def load8(dst: [f32][8] @ VEC, src: [f32][8] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        dst[i] = src[i]\n",
        {"VEC": AVX2.mem_type},
    )
    instr = Procedure(load._root, instr_info=InstrInfo(template, "", 1.0, True))
    return proc_from_source(
        "def copy8(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        "    v: f32[8] @ VEC\n"
        "    load8(v, x[0:8])\n"
        "    for i in seq(0, 8):\n"
        "        y[i] = v[i]\n",
        {"VEC": AVX2.mem_type, "load8": instr},
    )


def test_an_instr_s_c_template_is_part_of_the_key():
    unaligned = _through_load("{dst_data} = _mm256_loadu_ps(&{src_data});")
    aligned = _through_load("{dst_data} = _mm256_load_ps(&{src_data});")
    assert str(unaligned) == str(aligned)
    assert str(unaligned.body()[1]._node().proc) == str(aligned.body()[1]._node().proc)
    assert native.artifact_key(unaligned, cc="cc") != native.artifact_key(aligned, cc="cc")


@needs_cc
@pytest.mark.parametrize(
    "abi",
    [
        None,  # a .so of an older codegen: no constant at all
        "not json",
        '{"name":"no_such_function","argspec":[]}',
    ],
)
def test_an_artifact_that_does_not_describe_itself_is_evicted_and_rebuilt(cache, abi):
    import json

    from repro.backend.codegen import ABI_SYMBOL

    sched = _saxpy()
    key = native.artifact_key(sched)
    stub = cache / "stub.c"
    stub.write_text(
        "void saxpy(void) {}\n" + (f"const char {ABI_SYMBOL}[] = {json.dumps(abi)};\n" if abi else "")
    )
    subprocess.run(
        [native.find_cc(), "-shared", "-fPIC", "-o", str(cache / f"{key}.so"), str(stub)], check=True
    )
    stub.unlink()

    got = _run_native(sched, seed=5)
    stats = obs.counters("native.")
    assert (stats["corrupt_evicted"], stats["disk_hits"], stats["compiles"]) == (1, 0, 1)
    assert _so_count(cache) == 1
    ref = make_random_args(sched, {"n": 173}, seed=5)
    run_proc(sched, backend="interp", **ref)
    np.testing.assert_allclose(got["y"], ref["y"], rtol=1e-5, atol=1e-6)
    # the rebuilt artifact is the one a reload finds
    native.clear_memo()
    _run_native(sched)
    assert obs.count("native.disk_hits") == 1
