"""Blur and unsharp schedules as first-class :class:`Schedule` values
(Figure 12).

``blur_schedule()`` / ``unsharp_schedule()`` build the whole pipeline out of
the Schedule-valued Halide library with named knobs (``tile_y``, ``tile_x``,
``vec``), so one value covers the entire tile-size/vector-width sweep::

    s = blur_schedule()
    p = make_blur() >> s                            # defaults (32, 256, 16)
    variants = [s.apply(make_blur(), tile_y=t) for t in (16, 32, 64)]
"""

from __future__ import annotations

from ..api import S, knob, try_
from ..api.schedule import Schedule, Seq
from ..ir.memories import DRAM_STACK
from ..tune import Param, Space, threads_param
from .library import parallel, store_in, tile, vectorize_stage

__all__ = [
    "blur_schedule",
    "unsharp_schedule",
    "blur_space",
    "unsharp_space",
]


def blur_schedule(machine=None) -> Schedule:
    """The Exo 2 blur schedule of Figure 12 as a composable value.

    Knobs: ``tile_y`` (default 32), ``tile_x`` (256), ``vec`` (16).  The
    stages stay breadth-first (tiled, parallelised, vectorised), which is what
    the reproduced performance comparison measures."""
    tile_y, tile_x, vec = knob("tile_y", 32), knob("tile_x", 256), knob("vec", 16)
    return Seq.of(
        tile("out", "y", "x", "yi", "xi", tile_y, tile_x),
        parallel("y"),
        try_(vectorize_stage("blur_x", "xi", vec, machine)),
        try_(vectorize_stage("out", "xi", vec, machine)),
        try_(store_in("blur_x", DRAM_STACK)),
        S.cleanup(),
    )


def unsharp_schedule(machine=None) -> Schedule:
    """Unsharp masking as a Schedule value: tile the output, vectorise the
    inner loops.  Knobs as in :func:`blur_schedule`."""
    tile_y, tile_x, vec = knob("tile_y", 32), knob("tile_x", 256), knob("vec", 16)
    steps = [tile("out", "y", "x", "yi", "xi", tile_y, tile_x), parallel("y")]
    for stage in ("blur_x", "blur_y", "out"):
        steps.append(try_(vectorize_stage(stage, "xi", vec, machine)))
    steps += [
        try_(store_in("blur_x", DRAM_STACK)),
        try_(store_in("blur_y", DRAM_STACK)),
        S.cleanup(),
    ]
    return Seq.of(*steps)


def blur_space(*, tiles: bool = True, threads: bool = False):
    """The tunable domain of :func:`blur_schedule` for the autotuner.

    ``tiles=False`` restricts the sweep to the vector width, leaving the tile
    knobs at their defaults — with the tiling steps then knob-invariant, the
    tuner's shared-prefix split applies them once and every other candidate
    hits the replay cache for that prefix.  ``threads=True`` adds the
    reserved ``num_threads`` execution knob (the schedule's ``parallel("y")``
    step makes the row loop a real multicore ``par`` loop).
    """
    params = [Param("vec", (4, 8, 16))]
    if tiles:
        params = [Param("tile_y", (16, 32, 64)), Param("tile_x", (128, 256, 512))] + params
    if threads:
        params.append(threads_param())
    return Space(*params)


def unsharp_space(*, tiles: bool = True, threads: bool = False):
    """The tunable domain of :func:`unsharp_schedule` (same axes as blur)."""
    return blur_space(tiles=tiles, threads=threads)
