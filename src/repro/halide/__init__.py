"""Halide reproduction: blur/unsharp kernels, the Halide scheduling library
(nominal references on top of cursors, expressed as first-class Schedule
values), and their schedules (Section 6.3.2)."""

from .kernels import make_blur, make_unsharp
from .library import (
    parallel,
    producer_loop_nest,
    store_in,
    tile,
    vectorize_stage,
)
from .schedules import blur_schedule, blur_space, unsharp_schedule, unsharp_space

__all__ = [
    "make_blur",
    "make_unsharp",
    # Schedule-valued library
    "tile",
    "parallel",
    "vectorize_stage",
    "store_in",
    "blur_schedule",
    "unsharp_schedule",
    "blur_space",
    "unsharp_space",
    # helpers
    "producer_loop_nest",
]
