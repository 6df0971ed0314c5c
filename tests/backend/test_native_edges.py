"""The native backend's refusals on what a caller hands a kernel, a compiler
that cannot report its version, an artifact that cannot be published, and a
guarded first run that raises."""
from __future__ import annotations

import os

import numpy as np
import pytest

from repro.backend import native
from repro.backend.native import NativeRunError, NativeUnavailableError
from repro.blas import LEVEL1_KERNELS
from repro.guard import inject

needs_cc = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    yield tmp_path
    native.clear_memo()


def test_a_compiler_that_cannot_say_its_version_is_unknown(tmp_path):
    assert native.cc_version(str(tmp_path / "no-such-cc")) == "unknown"


@needs_cc
def test_a_kernel_refuses_arguments_it_cannot_address(cache):
    kernel = native.compile_native(LEVEL1_KERNELS["sscal"])
    x = np.ones(8, np.float32)
    with pytest.raises(NativeRunError, match="sscal: argument 'x' must be a numpy array"):
        kernel({"n": 8, "alpha": 2.0, "x": [1.0] * 8})
    with pytest.raises(NativeRunError, match="sscal: argument 'x' has rank 2, expected 1"):
        kernel({"n": 8, "alpha": 2.0, "x": np.ones((2, 4), np.float32)})
    odd = np.lib.stride_tricks.as_strided(x, shape=(4,), strides=(6,))  # 1.5 elements apart
    with pytest.raises(NativeRunError, match="sscal: argument 'x' has a sub-element stride"):
        kernel({"n": 4, "alpha": 2.0, "x": odd})


@needs_cc
def test_an_artifact_that_cannot_be_published_leaves_nothing_behind(cache):
    # the publish race, every time: the retries give up and nothing half-built stays
    with inject("publish-race"):
        with pytest.raises(NativeUnavailableError, match=r"cannot publish artifact .*\.so: injected cache publish race"):
            native.compile_native(LEVEL1_KERNELS["sasum"])
    assert not [f for f in os.listdir(cache) if f.endswith((".so", ".tmp"))]


@needs_cc
def test_a_guarded_first_run_that_raises_is_a_run_error(cache):
    kernel = native.compile_native(LEVEL1_KERNELS["sscal"])
    bad = {"n": 8, "alpha": 2.0, "x": np.ones(8, np.float64)}  # the wrong precision
    with pytest.raises(NativeRunError, match="sscal: guarded first run raised: NativeRunError: .*has dtype float64"):
        native.call_guarded(kernel, bad)
