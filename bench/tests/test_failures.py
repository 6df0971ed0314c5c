"""Honest failures: a silent fallback counts as failed, a missing compiler
fails loudly, and a hostile environment is scrubbed."""

import os
import subprocess
import sys

import pytest

from bench import env, spans
from bench import surface as R
from bench.clock import CalibratedClock
from bench.runner import BenchError, run_workload
from bench.workloads import WORKLOADS

needs_cc = pytest.mark.skipif(R.find_cc() is None, reason="no C compiler")


@pytest.fixture
def workload(request):
    sandbox = env.Sandbox()
    w = WORKLOADS[request.param](5, sandbox, CalibratedClock(), quick=True)
    w.cpus = (None, None)
    w.generate()
    w.setup(spans.NullTracer())
    yield w
    w.teardown()
    sandbox.close()


@needs_cc
@pytest.mark.parametrize("workload", ["kernel_small"], indirect=True)
def test_forced_fallback_of_warm_calls_is_counted_as_failed(workload, monkeypatch):
    # with no compiler to be found, run_proc(backend="c") silently hands the
    # call to the NumPy engine: the outputs are right, the engine is not
    monkeypatch.setenv("CC", "/nonexistent/cc")
    samples = workload.measure(0.2)
    assert not samples.failures and samples.of_class("c")
    workload.verify(samples)
    assert samples.failures and all("silently degraded" in f for f in samples.failures)
    assert not samples.of_class("c")  # none of those timings may be reported as C
    assert samples.of_class("np")


@needs_cc
@pytest.mark.parametrize("workload", ["first_result"], indirect=True)
def test_forced_fallback_of_first_results_is_counted_as_failed(workload, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    samples = workload.measure(0.2)
    assert samples.attempted == len(samples.failures) > 0
    assert all("silently degraded" in f for f in samples.failures)


def test_missing_compiler_fails_native_workloads_loudly(monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    with pytest.raises(BenchError, match="no C compiler"):
        run_workload("first_result", seed=1, seconds=0.2, trace=False, quick=True)


def test_environment_is_scrubbed():
    environ = {
        "REPRO_FAULTS": "cc-missing", "REPRO_EXEC_BACKEND": "interp", "REPRO_EXEC_INLINE": "0",
        "REPRO_GUARD": "off", "REPRO_GUARD_TIMEOUT": "1", "REPRO_NUM_THREADS": "7",
        "REPRO_NATIVE_CACHE": "/keep", "HOME": "/root",
    }
    doomed = sorted(set(environ) - {"REPRO_NATIVE_CACHE", "HOME"})
    assert env.scrub_environment(environ) == doomed
    assert set(environ) == {"REPRO_NATIVE_CACHE", "HOME"}


def test_sandbox_is_private_and_restores_the_environment():
    before = {k: os.environ.get(k) for k in ("TMPDIR", "REPRO_NATIVE_CACHE")}
    sandbox = env.Sandbox()
    assert os.environ["REPRO_NATIVE_CACHE"].startswith(sandbox.root)
    assert os.environ["TMPDIR"].startswith(sandbox.root)
    assert str(env.OUT_DIR) in sandbox.root
    sandbox.close()
    assert not os.path.exists(sandbox.root)
    assert {k: os.environ.get(k) for k in before} == before


def test_a_checkout_without_the_stack_exits_non_zero_without_a_result(tmp_path):
    """What the driver tries: BENCHMARK.json and bench/ alone."""
    import shutil

    shutil.copy(env.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "blas_family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "src/repro" in done.stderr
