"""Lean headers: a generated unit includes only the x86 sub-headers its ISA
level needs.  The machine code must not depend on that, a compiler that
rejects the lean form must still build every kernel (one observed escape, no
option), a scalar unit must include no x86 header at all, and an intrinsic the
lean set does not declare must be a compile error — never an implicit call."""
from __future__ import annotations

import os
import re
import stat
import subprocess

import numpy as np
import pytest

from repro import obs, proc_from_source
from repro.backend import native
from repro.backend.codegen import CodegenOptions, _with_wide_headers, emit_unit
from repro.blas import LEVEL1_KERNELS
from repro.core.procedure import Procedure
from repro.interp import make_random_args, run_proc
from repro.ir.nodes import InstrInfo
from repro.machines import AVX2, AVX512
from repro.metrics.kernels import FIRST_RESULT_KINDS, MACHINES, MARCH

pytestmark = pytest.mark.skipif(native.find_cc() is None, reason="no C compiler on PATH")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_lean_rejected", {})
    native.clear_memo()
    yield tmp_path / "cache"
    native.clear_memo()


def _assembly(source: str, march: str, tmp_path) -> list:
    """``cc -S`` of ``source`` with the backend's own flags, without the lines
    that name the input file or the compiler, and without the serial number
    of the function (it counts the declarations before it) in its labels."""
    c_path = tmp_path / "unit.c"
    c_path.write_text(source)
    out = subprocess.run(
        [native.find_cc(), *CodegenOptions(march=march).cflags(), "-fPIC", "-S", "-o", "-", str(c_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return [
        re.sub(r"^\.L(FB|FE)\d+:$", r".L\1:", ln)
        for ln in out.stdout.splitlines()
        if not ln.lstrip().startswith((".file", ".ident"))
    ]


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("kind", sorted(FIRST_RESULT_KINDS))
def test_lean_and_umbrella_units_are_the_same_machine_code(kind, machine, tmp_path):
    sched = FIRST_RESULT_KINDS[kind](MACHINES[machine])
    lean = emit_unit(sched)
    wide = _with_wide_headers(lean)
    assert "#include <immintrin.h>" not in lean.source
    if "_mm" not in lean.source:  # a schedule that lowers to scalar C (blur): nothing to choose
        assert "intrin.h" not in lean.source and wide is lean
        return
    assert "#include <immintrin.h>" in wide.source and "#include <avx2intrin.h>" in lean.source
    assert ("avx512fintrin.h" in lean.source) == (machine == "AVX512")
    # helper blocks travel whole: the units differ in preprocessor lines only
    code = lambda unit: [ln for ln in unit.source.splitlines() if not ln.startswith("#")]  # noqa: E731
    assert code(lean) == code(wide)
    assert wide.source.count("intrin.h") == 1
    march = MARCH[machine]
    assert _assembly(lean.source, march, tmp_path) == _assembly(wide.source, march, tmp_path)


def test_scalar_unit_includes_no_x86_header():
    unit = emit_unit(LEVEL1_KERNELS["saxpy"])
    assert "intrin.h" not in unit.source and "repro_avx2_" not in unit.source
    # nor what it does not call: no heap, no libm, no floor division
    assert not re.search(r"stdlib\.h|math\.h|repro_fdiv|repro_fmod", unit.source)
    assert _with_wide_headers(unit) is unit


@pytest.mark.parametrize(
    "body, wanted",
    [
        ("    for i in seq(0, n):\n        x[i] = 1.0\n", set()),
        ("    for i in seq(0, n / 8):\n        x[i] = 1.0\n", set()),  # a shift, no helper
        ("    for i in seq(0, n / 3):\n        x[i] = 1.0\n", {"floor division"}),
        ("    for i in seq(0, n % 3):\n        x[i] = 1.0\n", {"floor division"}),
        ("    for i in seq(0, n):\n        x[i] = sqrt(x[i])\n", {"math.h"}),
        ("    for i in seq(0, n):\n        x[i] = fmax(x[i], 0.0)\n", {"math.h"}),
        ("    t: f32[n]\n    for i in seq(0, n):\n        t[i] = x[i]\n        x[i] = t[i]\n", {"stdlib.h"}),
    ],
)
def test_a_unit_includes_the_c_library_it_calls(cache, body, wanted):
    p = proc_from_source("def f(n: size, x: f32[n] @ DRAM):\n" + body)
    source = emit_unit(p).source
    included = {h for h in ("stdlib.h", "math.h") if f"#include <{h}>" in source}
    if "static inline int64_t repro_fdiv(" in source:  # the two helpers travel together
        included.add("floor division")
    assert included == wanted
    # and it builds, so nothing it calls went undeclared (an implicit
    # declaration is an error), and computes what the interpreter does
    got, want = np.arange(1, 20, dtype=np.float32), np.arange(1, 20, dtype=np.float32)
    native.compile_native(p)({"n": 19, "x": got})
    run_proc(p, backend="interp", n=19, x=want)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def _rejecting_cc(tmp_path) -> str:
    """A compiler whose headers hide behind another include guard: it refuses
    any translation unit that defines the guards the lean preamble knows."""
    path = tmp_path / "guarded-cc"
    path.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do case "$a" in *.c)\n'
        '  if grep -q "define _IMMINTRIN_H_INCLUDED" "$a"; then\n'
        '    echo "$a:14:3: error: #error \\"Never use <avxintrin.h> directly\\"" >&2; exit 1\n'
        "  fi;; esac; done\n"
        f'exec {native.find_cc()} "$@"\n'
    )
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def _matches_interpreter(kernel, sched, sizes) -> None:
    got, want = make_random_args(sched, sizes, seed=1), make_random_args(sched, sizes, seed=1)
    kernel(got)
    run_proc(sched, backend="interp", **want)
    for name, ref in want.items():
        if isinstance(ref, np.ndarray):
            np.testing.assert_allclose(got[name], ref, rtol=1e-4, atol=1e-5)


def test_a_compiler_that_rejects_lean_headers_is_remembered(cache, tmp_path, monkeypatch):
    real = native.find_cc()
    monkeypatch.setenv("CC", _rejecting_cc(tmp_path))
    native.clear_memo()
    cc = native.find_cc()
    assert cc != real

    saxpy = FIRST_RESULT_KINDS["axpy"](AVX2)
    first = native.compile_native(saxpy)
    # one rejected lean attempt, then the umbrella-header build
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (2, 1)
    (ev,) = [e for e in obs.events() if e.reason == "lean-headers-rejected"]
    assert (ev.stage, ev.artifact_key) == ("c-lean->c-wide", first.key)
    assert "error" in ev.detail and "avxintrin.h" in ev.detail
    assert "#include <immintrin.h>" in (cache / f"{first.key}.c").read_text()
    _matches_interpreter(first, saxpy, {"n": 173})

    # the observation is per compiler and per process: no second lean attempt
    sscal = FIRST_RESULT_KINDS["scal"](AVX2)
    second = native.compile_native(sscal)
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (3, 1)
    _matches_interpreter(second, sscal, {"n": 173})

    # the key is of the kernel, not of the headers the build went through
    assert native.artifact_key(saxpy) == first.key
    assert native.artifact_key(sscal) == second.key
    assert native.artifact_key(saxpy, cc=cc) == first.key
    # a scalar unit has nothing to widen, so it still builds in one attempt
    native.compile_native(LEVEL1_KERNELS["saxpy"])
    assert obs.count("native.compiles") == 4

    # and the real compiler is unaffected
    monkeypatch.setenv("CC", real)
    native.clear_memo()
    native.compile_native(FIRST_RESULT_KINDS["dot"](AVX2))
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (5, 1)


def _copy8_through(load_template: str):
    """``y[0:8] = x[0:8]`` through a hand-written vector load ``@instr`` whose
    C template is ``load_template``."""
    load = proc_from_source(
        "def odd_load(dst: [f32][8] @ VEC, src: [f32][8] @ DRAM):\n"
        "    for i in seq(0, 8):\n"
        "        dst[i] = src[i]\n",
        {"VEC": AVX2.mem_type},
    )
    odd = Procedure(load._root, instr_info=InstrInfo(load_template, "", 1.0, True))
    return proc_from_source(
        "def copy8(x: f32[8] @ DRAM, y: f32[8] @ DRAM):\n"
        "    v: f32[8] @ VEC\n"
        "    odd_load(v, x[0:8])\n"
        "    for i in seq(0, 8):\n"
        "        y[i] = v[i]\n",
        {"VEC": AVX2.mem_type, "odd_load": odd},
    )


def test_an_undeclared_intrinsic_is_a_compile_error(cache):
    kernel = _copy8_through("{dst_data} = _mm256_bogus_loadu_ps(&{src_data});")
    assert "_mm256_bogus_loadu_ps" in emit_unit(kernel).source
    with pytest.raises(native.NativeUnavailableError, match="_mm256_bogus_loadu_ps"):
        native.compile_native(kernel)
    # rejected by cc (lean, then behind the umbrella header): nothing to load,
    # and a kernel that fails both ways says nothing about the compiler
    assert not [f for f in os.listdir(cache) if f.endswith(".so")]
    assert obs.count("native.compiles") == 2 and obs.count("native.lean_rejected") == 0
    assert native._lean_rejected == {}
    # run_proc degrades: the result comes from the NumPy engine
    x, y = np.arange(8, dtype=np.float32), np.zeros(8, np.float32)
    run_proc(kernel, x, y, backend="c")
    np.testing.assert_array_equal(x, y)
    assert obs.count("fallback.native-unavailable") == 1


def test_an_intrinsic_outside_the_lean_set_builds_wide_and_blames_no_compiler(cache):
    # F16C is a real x86 extension whose header is not one of the nine
    options = CodegenOptions(march="haswell")
    kernel = _copy8_through("{dst_data} = _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)&{src_data}));")
    built = native.compile_native(kernel, options=options)
    assert os.path.exists(cache / f"{built.key}.so")
    assert "#include <immintrin.h>" in (cache / f"{built.key}.c").read_text()
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (2, 1)
    (ev,) = [e for e in obs.events() if e.reason == "lean-headers-rejected"]
    assert "_mm256_cvtph_ps" in ev.detail
    # the kernel asked for more than the lean set; the compiler did nothing wrong
    assert native._lean_rejected == {}
    native.compile_native(FIRST_RESULT_KINDS["axpy"](AVX2), options=options)
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (3, 1)


def test_an_intrinsic_the_target_lacks_is_not_rebuilt_wide(cache):
    # no header cures a -march without the ISA: one cc run, not two
    with pytest.raises(native.NativeUnavailableError):
        native.compile_native(FIRST_RESULT_KINDS["axpy"](AVX512), options=CodegenOptions(march="haswell"))
    assert (obs.count("native.compiles"), obs.count("native.lean_rejected")) == (1, 0)
    assert native._lean_rejected == {}
