"""The BLAS scheduling library ("BLAS-lib") and kernels (Section 6.2)."""

from .kernels import (
    LEVEL1_KERNELS,
    LEVEL2_KERNELS,
    SGEMM,
    all_level1_names,
    all_level2_names,
)
from .level1 import optimize_level_1
from .level2 import opt_skinny, optimize_level_2_general
from .level3 import gen_ukernel, optimize_level_3, schedule_sgemm, sgemm_micro_kernel
from .reference import kernel_flops_bytes, level1_reference, level2_reference
from .schedules import (
    level1_schedule,
    level1_space,
    level2_schedule,
    level2_space,
    level3_schedule,
    level3_space,
    scheduled_level1,
    scheduled_level2,
    skinny_schedule,
    skinny_space,
)

__all__ = [
    "level1_schedule",
    "level2_schedule",
    "level3_schedule",
    "skinny_schedule",
    "level1_space",
    "level2_space",
    "level3_space",
    "skinny_space",
    "scheduled_level1",
    "scheduled_level2",
    "LEVEL1_KERNELS",
    "LEVEL2_KERNELS",
    "SGEMM",
    "all_level1_names",
    "all_level2_names",
    "optimize_level_1",
    "optimize_level_2_general",
    "opt_skinny",
    "gen_ukernel",
    "optimize_level_3",
    "schedule_sgemm",
    "sgemm_micro_kernel",
    "kernel_flops_bytes",
    "level1_reference",
    "level2_reference",
]
