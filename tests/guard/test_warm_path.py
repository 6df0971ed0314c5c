"""The warm path of ``run_proc(backend="c")`` may skip work, never a check.

Once a kernel is warm, ``compile_native`` answers from its identity tier
without lowering anything (tests/backend/test_native_cache.py), and what is
fixed per procedure or per artifact is derived once.  Every per-call safety
decision must still be taken on each of those calls: the toolchain fault
sites are consulted, ``CC`` / ``PATH`` / ``REPRO_NATIVE_CACHE`` /
``REPRO_GUARD`` are read afresh, and poisoned artifacts are refused before
they execute.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.backend import native
from repro.guard import inject
from repro.interp import make_random_args, run_proc
from repro.primitives import parallelize_loop

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


def _args(axpy, seed):
    args = make_random_args(axpy, {"n": 96}, seed=seed)
    return args, args["y"] + args["a"] * args["x"]


def _warm(proc, axpy):
    """Compile, quarantine and validate; returns the kernel every later
    call resolves to."""
    args, expect = _args(axpy, seed=0)
    run_proc(proc, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    kernel = native.compile_native(proc)
    assert native.artifact_status(kernel.key) == "validated"
    assert obs.counters("fallback.") == {}
    return kernel


def _forbid_execution(kernel, monkeypatch):
    def ran(*_args):
        raise AssertionError("the kernel executed")

    monkeypatch.setattr(kernel, "_fn", ran)


@needs_cc
def test_cc_missing_on_a_warm_kernel_still_degrades(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    with inject("cc-missing"):
        args, expect = _args(axpy, seed=1)
        run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.proc == "_axpy"


@needs_cc
def test_omp_missing_on_a_warm_par_kernel_still_records_its_event(cache, axpy, tolerates):
    tolerates()
    if not native.openmp_supported(native.find_cc()):
        pytest.skip("toolchain cannot build with -fopenmp")
    par = parallelize_loop(axpy, "i")
    kernel = _warm(par, axpy)
    assert kernel._omp_set is not None
    with inject("omp-missing"):
        for seed in (1, 2):  # the second call is warm on the sequential twin
            args, expect = _args(axpy, seed=seed)
            run_proc(par, backend="c", threads=2, **args)
            np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
        assert native.compile_native(par) is not kernel
    events = [(e.stage, e.reason) for e in obs.events()]
    assert events == [("c-par->c-seq", "omp-missing")] * 3
    assert native.compile_native(par) is kernel  # the fault disarmed


@needs_cc
def test_poisoning_a_warm_kernel_stops_the_very_next_call(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    native.mark_poisoned(kernel.key, "kernel-segfault: found out later")

    args, expect = _args(axpy, seed=1)
    with pytest.raises(native.ArtifactPoisonedError, match="found out later"):
        native.call_guarded(native.compile_native(axpy), args)
    np.testing.assert_array_equal(args["y"], _args(axpy, seed=1)[0]["y"])  # untouched

    run_proc(axpy, backend="c", **args)  # degrades instead of raising
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"poisoned-artifact": 1}
    (ev,) = obs.events()
    assert ev.stage == "c->compiled" and ev.artifact_key == kernel.key
    assert obs.count("guard.guarded_runs") == 1  # the guard was not re-entered


def _count_executions(kernel, monkeypatch):
    ran = []
    fn = kernel._fn
    monkeypatch.setattr(kernel, "_fn", lambda *a: ran.append(1) or fn(*a))
    return ran


@needs_cc
def test_a_switched_cache_directory_is_read_for_its_own_trust_stamp(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    kernel = _warm(axpy, axpy)
    ran = _count_executions(kernel, monkeypatch)
    elsewhere = tmp_path_factory.mktemp("elsewhere")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(elsewhere))
    native.mark_poisoned(kernel.key, "kernel-hang: seen on another cache")

    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)  # the warm kernel, refused by the new directory's stamp
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert ran == [] and obs.counters("fallback.") == {"poisoned-artifact": 1}

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    args, expect = _args(axpy, seed=2)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert ran == [1] and obs.counters("fallback.") == {"poisoned-artifact": 1}
    assert obs.count("guard.guarded_runs") == 1


def _fsck():
    """``tools/repro_fsck.py``, the doctor of the persistent stores."""
    module = sys.modules.get("repro_fsck")
    if module is None:
        path = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "repro_fsck.py")
        spec = importlib.util.spec_from_file_location("repro_fsck", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["repro_fsck"] = module  # dataclasses resolve annotations via here
        spec.loader.exec_module(module)
    return module


@needs_cc
def test_a_kernel_built_in_another_cache_is_stamped_beside_its_own_so(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    first = tmp_path_factory.mktemp("first")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(first))
    key = native.compile_native(axpy).key  # built in `first`, never run

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)

    findings = _fsck().scan([str(first), str(cache)])
    assert [f.path for f in findings if f.kind == "orphan-sidecar"] == []
    assert (cache / f"{key}.so").exists() and not (first / f"{key}.meta.json").exists()
    assert obs.count("guard.guarded_runs") == 1
    assert native.artifact_status(key) == "validated"
    assert obs.counters("fallback.") == {}


@needs_cc
def test_a_stamp_without_its_so_does_not_vouch_for_the_binary_built_there(cache, axpy, tolerates):
    tolerates()
    key = native.artifact_key(axpy)
    native.mark_validated(key)  # left behind by a binary that is gone
    assert native.compile_native(axpy).key == key
    assert native.artifact_status(key) == "new"

    run_proc(axpy, backend="c", **_args(axpy, seed=1)[0])
    assert obs.count("guard.guarded_runs") == 1
    assert native.artifact_status(key) == "validated"


@needs_cc
def test_cc_and_path_are_resolved_again_on_the_next_call(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    real, cc_name = native.find_cc(), os.environ.get("CC")
    kernel = _warm(axpy, axpy)
    ran = _count_executions(kernel, monkeypatch)

    monkeypatch.setenv("CC", "no-such-compiler-anywhere")
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert ran == [] and obs.counters("fallback.") == {"cc-missing": 1}

    bin_dir = tmp_path_factory.mktemp("bin")
    fake = bin_dir / "fakecc"
    fake.write_text("#!/bin/sh\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("CC", "fakecc")
    monkeypatch.setenv("PATH", str(bin_dir))
    assert native.find_cc() == str(fake)

    if cc_name is None:  # back to the compiler the kernel was built with
        monkeypatch.delenv("CC")
    else:
        monkeypatch.setenv("CC", cc_name)
    monkeypatch.setenv("PATH", os.path.dirname(real))
    assert native.find_cc() == real
    run_proc(axpy, backend="c", **_args(axpy, seed=2)[0])
    assert ran == [1] and obs.counters("fallback.") == {"cc-missing": 1}


@needs_cc
def test_guard_off_is_seen_on_the_next_call(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    native.clear_artifact_status(kernel.key)  # "new" again: the next guarded call forks
    assert obs.count("guard.guarded_runs") == 1

    monkeypatch.setenv("REPRO_GUARD", "off")
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.count("guard.guarded_runs") == 1
    assert native.artifact_status(kernel.key) == "new"  # no stamp without a guarded run

    monkeypatch.delenv("REPRO_GUARD")
    run_proc(axpy, backend="c", **_args(axpy, seed=2)[0])
    assert obs.count("guard.guarded_runs") == 2
    assert native.artifact_status(kernel.key) == "validated"
    assert obs.counters("fallback.") == {}


# -- the record: what a warm call looks up instead of resolving ---------------
#
# ``run_proc(backend="c")`` keeps the ladder's outcome on the procedure's root,
# keyed by the memo generation and by the raw environment the ladder reads.
# Each test below changes one of those inputs on a warm kernel.


@needs_cc
def test_env_armed_cc_missing_on_a_warm_kernel_still_degrades(cache, axpy, tolerates, monkeypatch):
    tolerates()
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "cc-missing")
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}


@needs_cc
def test_a_home_switch_resolves_in_the_new_default_cache(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    monkeypatch.delenv("REPRO_NATIVE_CACHE")
    first, second = tmp_path_factory.mktemp("home1"), tmp_path_factory.mktemp("home2")
    monkeypatch.setenv("HOME", str(first))
    kernel = _warm(axpy, axpy)
    assert kernel.so_path.startswith(str(first))
    ran = _count_executions(kernel, monkeypatch)

    monkeypatch.setenv("HOME", str(second))
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert ran == []  # the kernel of the old default directory did not run
    moved = native.compile_native(axpy)
    assert moved.so_path == os.path.join(str(second), ".cache", "repro", "native", f"{kernel.key}.so")
    assert native.artifact_status(kernel.key) == "validated"
    assert obs.count("guard.guarded_runs") == 2 and obs.counters("fallback.") == {}


@needs_cc
def test_a_path_without_the_compiler_degrades_a_warm_kernel(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    monkeypatch.delenv("CC", raising=False)  # "cc", looked up on PATH
    if native.find_cc() is None:
        pytest.skip("no cc on PATH")
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    monkeypatch.setenv("PATH", str(tmp_path_factory.mktemp("empty")))
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}


@needs_cc
def test_a_removed_compiler_degrades_a_warm_kernel(cache, axpy, tolerates, monkeypatch, tmp_path_factory):
    tolerates()
    bin_dir = tmp_path_factory.mktemp("bin")
    link = bin_dir / "cc"
    os.symlink(native.find_cc(), link)
    monkeypatch.setenv("CC", str(link))
    kernel = _warm(axpy, axpy)
    _forbid_execution(kernel, monkeypatch)
    link.unlink()  # nothing in the environment changed
    args, expect = _args(axpy, seed=1)
    run_proc(axpy, backend="c", **args)
    np.testing.assert_allclose(args["y"], expect, rtol=1e-4, atol=1e-5)
    assert obs.counters("fallback.") == {"cc-missing": 1}


@needs_cc
def test_clear_memo_sends_a_warm_call_back_to_disk(cache, axpy, tolerates, emits):
    tolerates()
    _warm(axpy, axpy)
    before = obs.counters("native.")
    native.clear_memo()
    run_proc(axpy, backend="c", **_args(axpy, seed=1)[0])
    after = obs.counters("native.")
    assert after["disk_hits"] == before.get("disk_hits", 0) + 1
    assert after["memo_hits"] == before.get("memo_hits", 0)
    assert len(emits) == 1  # the build in _warm; the re-resolve lowered nothing


@needs_cc
def test_a_warm_call_is_one_lookup_and_every_check(cache, gemv, tolerates, emits, monkeypatch):
    """Structure, not timing: a warm call neither looks the compiler up nor
    builds a tree interpreter (``gemv`` has preconditions) nor lowers, and
    each call runs the kernel once and counts one memo hit."""
    tolerates()
    import shutil

    from repro.interp import interpreter

    args = make_random_args(gemv, {"M": 16, "N": 8}, seed=0)
    run_proc(gemv, backend="c", **args)
    run_proc(gemv, backend="c", **args)
    kernel = native.compile_native(gemv)
    assert native.artifact_status(kernel.key) == "validated"
    ran = _count_executions(kernel, monkeypatch)
    which, interps = [], []
    real_which, real_init = shutil.which, interpreter._Interp.__init__
    monkeypatch.setattr(shutil, "which", lambda *a, **k: which.append(1) or real_which(*a, **k))
    monkeypatch.setattr(
        interpreter._Interp, "__init__", lambda self, *a: interps.append(1) or real_init(self, *a)
    )
    obs.reset()
    emitted = len(emits)

    for _ in range(100):
        run_proc(gemv, backend="c", **args)
    assert (len(which), len(interps), len(emits) - emitted) == (0, 0, 0)
    assert len(ran) == 100
    assert obs.count("native.memo_hits") == 100
    assert obs.counters("fallback.") == {}
