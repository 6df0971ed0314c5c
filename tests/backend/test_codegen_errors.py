"""CodegenError typing: unlowerable constructs are rejected *before* any C is
emitted, with the offending statement's printed source and procedure name."""
from __future__ import annotations

import pytest

from repro import proc
from repro.backend.codegen import CodegenError, emit_unit, proc_to_c
from repro.errors import BackendError, ExoError
from repro.gemmini import make_matmul_kernel, matmul_schedule
from repro.lang import *  # noqa: F401,F403


def test_codegen_error_is_backend_error():
    assert issubclass(CodegenError, BackendError)
    assert issubclass(CodegenError, ExoError)


def test_codegen_error_carries_location_and_proc():
    err = CodegenError("nope", proc_name="foo", location="x[i] = 1.0")
    assert err.proc_name == "foo"
    assert err.location == "x[i] = 1.0"
    assert "nope" in str(err)
    assert "x[i] = 1.0" in str(err)
    assert "'foo'" in str(err)


def test_gemmini_config_state_declines_with_location():
    sched = matmul_schedule().apply(make_matmul_kernel(), tile=16)
    with pytest.raises(CodegenError) as exc_info:
        emit_unit(sched._root if hasattr(sched, "_root") else sched)
    err = exc_info.value
    assert err.proc_name is not None
    assert err.location is not None
    # the location is the printed surface syntax of the offending statement
    assert "config" in err.location
    assert err.location in str(err)


def test_float_modulo_rejected():
    @proc
    def fmod_proc(n: size, x: f32[n] @ DRAM):
        for i in seq(0, n):
            x[i] = x[i] % 2.0

    with pytest.raises(CodegenError) as exc_info:
        proc_to_c(fmod_proc._root if hasattr(fmod_proc, "_root") else fmod_proc)
    assert exc_info.value.proc_name == "fmod_proc"
