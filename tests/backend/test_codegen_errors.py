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


def test_a_vector_operand_that_is_no_register_is_declined_not_left_to_cc():
    """A row of two registers is allocated as a ``float`` array; an intrinsic
    template would hand ``_mm256_storeu_ps`` a ``float``.  That is the code
    generator's refusal (buffer and shape named), never a failed ``cc``."""
    from repro import obs, proc_from_source, replace_all, set_memory
    from repro.backend.native import compile_native, find_cc
    from repro.interp import run_proc
    from repro.machines import AVX2

    p = proc_from_source(
        "def tile(C: f32[2, 16] @ DRAM):\n"
        "    t: f32[2, 16] @ DRAM\n"
        "    for i in seq(0, 2):\n"
        "        for jo in seq(0, 2):\n"
        "            for ji in seq(0, 8):\n"
        "                C[i, 8 * jo + ji] = t[i, 8 * jo + ji]\n"
    )
    p = replace_all(set_memory(p, "t", AVX2.mem_type), AVX2.get_instructions("f32"))
    assert "avx2_f32_store(C[" in str(p)
    with pytest.raises(CodegenError, match=r"t: f32\[2, 16\] @ VEC_AVX2") as exc_info:
        emit_unit(p._root)
    assert "t[i, 8 * jo:8 * jo + 8]" in exc_info.value.location
    if find_cc() is not None:
        with pytest.raises(CodegenError):
            compile_native(p)
        import numpy as np

        run_proc(p, backend="c", C=np.ones((2, 16), np.float32))
        assert obs.count("fallback.codegen-declined") == 1
