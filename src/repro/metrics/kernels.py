"""The kernels a build is sized on: one scheduled procedure per kernel kind of
the benchmark's ``first_result`` workload, for each vector machine
(``tools/cc_census.py``, ``tests/backend/test_lean_headers.py``)."""

from __future__ import annotations

from ..blas import LEVEL1_KERNELS, LEVEL2_KERNELS, optimize_level_1, optimize_level_2_general, schedule_sgemm
from ..halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
from ..machines import AVX2, AVX512

MACHINES = {"AVX2": AVX2, "AVX512": AVX512}
#: a ``-march`` that has each machine's ISA, whatever the host is (``cc -S``
#: and ``dlopen`` never execute the kernel)
MARCH = {"AVX2": "haswell", "AVX512": "skylake-avx512"}

#: the eight kernel kinds of the benchmark's ``first_result`` workload
FIRST_RESULT_KINDS = {
    "axpy": lambda m: optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", m, 2),
    "dot": lambda m: optimize_level_1(LEVEL1_KERNELS["ddot"], "i", "f64", m, 2),
    "scal": lambda m: optimize_level_1(LEVEL1_KERNELS["sscal"], "i", "f32", m, 2),
    "gemv_n": lambda m: optimize_level_2_general(LEVEL2_KERNELS["dgemv_n"], "i", "f64", m, 2, 2),
    "ger": lambda m: optimize_level_2_general(LEVEL2_KERNELS["sger"], "i", "f32", m, 2, 2),
    "sgemm": schedule_sgemm,
    "blur": lambda m: make_blur() >> blur_schedule(m),
    "unsharp": lambda m: make_unsharp() >> unsharp_schedule(m),
}
