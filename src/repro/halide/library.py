"""Reproduction of Halide's scheduling operations (Section 6.3.2).

Halide uses *nominal* references — each computation stage is identified by the
buffer it writes (``blur_x``, ``blur_y``) and loops by their iterator names.
The library is expressed in the first-class combinator API of
:mod:`repro.api`: ``tile(...)``, ``parallel(...)``, ``vectorize_stage(...)``
and ``store_in(...)`` return :class:`~repro.api.schedule.Schedule` values that
accept nominal references and internally translate them into Exo 2 cursors,
then drive ordinary primitives — demonstrating that cursors subsume Halide's
fixed-time nominal referencing scheme.  Like every library here it acts only
through the checked primitives; fusing a producer stage into its consumer's
tile (Figure 10) is not offered until it is such a composition (ROADMAP,
"library schedules" (c)).
"""

from __future__ import annotations

from ..api import lift_op
from ..cursors.cursor import ForCursor
from ..errors import SchedulingError
from ..machines import AVX512
from ..primitives import divide_loop, lift_scope, parallelize_loop, set_memory
from ..stdlib.tiling import interleave_loop
from ..stdlib.vectorize import fma_rule, vectorize

__all__ = [
    "producer_loop_nest",
    # Schedule-valued library (the primary surface)
    "tile",
    "parallel",
    "vectorize_stage",
    "store_in",
]


def producer_loop_nest(p, buf_name: str) -> ForCursor:
    """The outermost loop of the computation that writes ``buf_name`` — the
    Halide-style nominal reference resolved to a cursor."""
    for loop in p.body():
        if isinstance(loop, ForCursor) and (
            loop.find(f"{buf_name}[_] = _", many=True) or loop.find(f"{buf_name}[_] += _", many=True)
        ):
            return loop
    raise SchedulingError(f"no computation writes {buf_name!r}")


def _loop_of(p, stage: str, iter_name: str) -> ForCursor:
    """The loop named ``iter_name`` inside the loop nest computing ``stage``."""
    nest_root = producer_loop_nest(p, stage)
    if nest_root.name() == iter_name:
        return nest_root
    return nest_root.find_loop(iter_name)


def _tile_impl(p, stage: str, y: str, x: str, yi: str, xi: str, y_sz: int, x_sz: int):
    """``stage.tile(x, y, xi, yi, x_sz, y_sz)``."""
    y_loop = _loop_of(p, stage, y)
    x_loop = _loop_of(p, stage, x)
    p = divide_loop(p, y_loop, y_sz, [y, yi], perfect=True)
    p = divide_loop(p, p.forward(x_loop), x_sz, [x, xi], perfect=True)
    p = lift_scope(p, _loop_of(p, stage, x))
    return p


def _parallel_impl(p, iter_name: str):
    """``Func.parallel(y)`` — annotate the loop as parallel."""
    return parallelize_loop(p, p.find_loop(iter_name))


def _vectorize_stage_impl(p, stage: str, iter_name: str, width: int, machine=None, precision: str = "f32"):
    """``stage.vectorize(xi, width)`` using the user-level vectorizer: a width
    of several machine vectors is that many instructions per iteration."""
    machine = machine or AVX512
    lanes = machine.vec_width(precision)
    if width % lanes:
        raise SchedulingError(
            f"H_vectorize: width {width} is not a multiple of the {lanes} {precision} lanes of {machine.name}"
        )
    loop = _loop_of(p, stage, iter_name)
    instrs = machine.get_instructions(precision)
    p = vectorize(p, loop, lanes, precision, machine.mem_type, instrs, rules=[fma_rule])
    return interleave_loop(p, p.forward(loop), width // lanes)


def _store_in_impl(p, buf_name: str, memory):
    """``Func.store_in(...)`` — change the storage of an intermediate buffer."""
    return set_memory(p, buf_name, memory)


# ---------------------------------------------------------------------------
# The first-class library surface: each operation is a Schedule factory
# (curried — ``tile("out", "y", "x", "yi", "xi", 32, 256)`` is a value that
# composes with ``>>``, ``try_`` and knobs), lifted from the implementations
# above.  They also register on ``repro.api.S`` under their bare names.
# ---------------------------------------------------------------------------

tile = lift_op(_tile_impl, "H_tile", register=True)
parallel = lift_op(_parallel_impl, "H_parallel", register=True)
vectorize_stage = lift_op(_vectorize_stage_impl, "H_vectorize", register=True)
store_in = lift_op(_store_in_impl, "H_store_in", register=True)

