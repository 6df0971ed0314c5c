"""Every library's tunable domain fits its schedule: the first config of each
``*_space()`` names knobs the schedule has, and applies to its kernel."""
from __future__ import annotations

import pytest

from repro.blas import (
    LEVEL1_KERNELS, LEVEL2_KERNELS, SGEMM, level1_schedule, level1_space, level2_schedule, level2_space,
    level3_schedule, level3_space, skinny_schedule, skinny_space,
)
from repro.gemmini import make_matmul_kernel, matmul_schedule, matmul_space
from repro.halide import blur_schedule, blur_space, make_blur, make_unsharp, unsharp_schedule, unsharp_space

# name -> () -> (kernel, schedule, space)
LIBRARIES = {
    "level1": lambda: (LEVEL1_KERNELS["saxpy"], level1_schedule(), level1_space()),
    "level2": lambda: (LEVEL2_KERNELS["sgemv_n"], level2_schedule(), level2_space()),
    "level3": lambda: (SGEMM, level3_schedule(), level3_space()),
    "skinny": lambda: (LEVEL2_KERNELS["sgemv_n"], skinny_schedule("i", 8), skinny_space()),
    "blur": lambda: (make_blur(), blur_schedule(), blur_space()),
    "unsharp": lambda: (make_unsharp(), unsharp_schedule(), unsharp_space()),
    "gemmini_matmul": lambda: (make_matmul_kernel(), matmul_schedule(), matmul_space()),
}


@pytest.mark.parametrize("name", sorted(LIBRARIES))
def test_the_first_config_of_each_space_applies_to_its_kernel(name):
    kernel, sched, space = LIBRARIES[name]()
    config = space.grid()[0]
    assert set(space.names()) <= set(sched.knob_defaults())
    out, trace = sched.apply_traced(kernel, config)
    assert str(out) != str(kernel)
    assert not [e for e in trace.entries if e.kind == "failed"]
