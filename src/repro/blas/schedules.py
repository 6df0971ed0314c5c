"""BLAS schedules as first-class :class:`Schedule` values.

The level-1/level-2/level-3 optimisation pipelines (Section 6.2, Appendices
C and D) are lifted into the combinator API with named knobs, so one Schedule
value covers a whole machine/ILP sweep and batch application across the
kernel family is memoised through the shared replay cache::

    from repro.blas import level1_schedule, scheduled_level1
    s = level1_schedule(machine=AVX2)            # knob: 'interleave'
    fast = s.apply(LEVEL1_KERNELS['saxpy'], interleave=4)
    fast2 = scheduled_level1('saxpy', AVX2)      # cached across calls
"""

from __future__ import annotations

from ..api import knob, lift_op, schedule_cache
from ..api.schedule import Schedule
from ..machines import AVX2
from ..tune import Param, Space
from .kernels import LEVEL1_KERNELS, LEVEL2_KERNELS
from .level1 import optimize_level_1
from .level2 import opt_skinny, optimize_level_2_general
from .level3 import optimize_level_3

__all__ = [
    "optimize_l1",
    "optimize_l2",
    "optimize_l3",
    "skinny",
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
]

# the raw pipelines, lifted into curried Schedule factories (and registered
# on the S namespace under the same names)
optimize_l1 = lift_op(optimize_level_1, "optimize_level_1", register=True)
optimize_l2 = lift_op(optimize_level_2_general, "optimize_level_2_general", register=True)
optimize_l3 = lift_op(optimize_level_3, "optimize_level_3", register=True)
skinny = lift_op(opt_skinny, "opt_skinny", register=True)


def level1_schedule(loop: str = "i", precision: str = "f32", machine=None) -> Schedule:
    """The shared level-1 schedule as a value; knob ``interleave`` (default 2)
    controls the ILP interleaving factor."""
    machine = machine or AVX2
    return optimize_l1(loop, precision, machine, knob("interleave", 2))


def level2_schedule(o_loop: str = "i", precision: str = "f32", machine=None) -> Schedule:
    """The shared level-2 schedule as a value; knobs ``rows`` / ``cols``
    (both default 2) control the unroll-and-jam and inner interleave
    factors."""
    machine = machine or AVX2
    return optimize_l2(o_loop, precision, machine, knob("rows", 2), knob("cols", 2))


def level3_schedule(machine=None, precision: str = "f32") -> Schedule:
    """The GEMM schedule as a value; knobs ``M_r`` (default 6) and
    ``N_r_vecs`` (default 2) size the register micro-tile in rows and in
    vectors per row."""
    machine = machine or AVX2
    return optimize_l3(machine, precision, knob("M_r", 6), knob("N_r_vecs", 2))


def skinny_schedule(out_loop: str, vw: int, precision: str = "f32", machine=None) -> Schedule:
    """The Figure 7b skinny-matrix schedule as a value; knob ``interleave``
    (default 2)."""
    machine = machine or AVX2
    return skinny(out_loop, vw, machine.mem_type, precision, machine, knob("interleave", 2))


def level1_space():
    """The tunable domain of :func:`level1_schedule` for the autotuner:
    ILP interleave factors worth trying on any of the modelled machines."""
    return Space(Param.pow2("interleave", 1, 8))


def level2_space():
    """The tunable domain of :func:`level2_schedule`: unroll-and-jam rows ×
    inner interleave columns."""
    return Space(Param.pow2("rows", 1, 4), Param.pow2("cols", 1, 4))


def level3_space():
    """The tunable domain of :func:`level3_schedule`: micro-tile rows × vectors
    per row.  The larger tiles spill (8 x 4 accumulators alone fill AVX-512's 32
    registers): that is the tuner's to find out."""
    return Space(Param("M_r", (4, 6, 8)), Param("N_r_vecs", (1, 2, 3, 4)))


def skinny_space():
    """The tunable domain of :func:`skinny_schedule` (same ILP axis as
    level 1)."""
    return Space(Param.pow2("interleave", 1, 4))


def _precision_of(name: str) -> str:
    return "f64" if name.startswith("d") else "f32"


def scheduled_level1(name: str, machine=None, *, cache=schedule_cache, **knobs):
    """Schedule one level-1 kernel by name, memoised in the replay cache —
    batch generation of the whole kernel family pays for each distinct
    (kernel, machine, knobs) combination once per process."""
    return level1_schedule("i", _precision_of(name), machine).apply(
        LEVEL1_KERNELS[name], knobs, cache=cache
    )


def scheduled_level2(name: str, machine=None, *, cache=schedule_cache, **knobs):
    """Schedule one level-2 kernel by name, memoised in the replay cache."""
    return level2_schedule("i", _precision_of(name), machine).apply(
        LEVEL2_KERNELS[name], knobs, cache=cache
    )
