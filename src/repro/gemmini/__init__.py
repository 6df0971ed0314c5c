"""Gemmini library: the accelerator matmul schedule of Section 6.1.2 / Appendix B."""

from .schedule import (
    make_matmul_kernel,
    matmul_schedule,
    matmul_space,
    schedule_matmul_gemmini_exo_style,
)

__all__ = [
    "make_matmul_kernel",
    "matmul_schedule",
    "matmul_space",
    "schedule_matmul_gemmini_exo_style",
]
