"""Reproduction of Halide's scheduling operations (Section 6.3.2).

Halide uses *nominal* references — each computation stage is identified by the
buffer it writes (``blur_x``, ``blur_y``) and loops by their iterator names.
The library is expressed in the first-class combinator API of
:mod:`repro.api`: ``tile(...)``, ``parallel(...)``, ``vectorize_stage(...)``,
``store_in(...)`` and ``compute_store_at(...)`` return
:class:`~repro.api.schedule.Schedule` values that accept nominal references
and internally translate them into Exo 2 cursors, then drive ordinary
primitives and the user-level bounds inference of Section 4 — demonstrating
that cursors subsume Halide's fixed-time nominal referencing scheme.

``compute_store_at`` is implemented with the Figure 10 recipe: infer the
producer window needed per consumer tile, stage the producer into a tile-local
buffer, and recompute it inside the consumer tile loop.
"""

from __future__ import annotations

from typing import List, Optional

from ..cursors.cursor import ForCursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..primitives import (
    divide_loop,
    lift_scope,
    parallelize_loop,
    set_memory,
    simplify,
)
from ..stdlib.inspection import get_enclosing_loop, infer_bounds, loop_nest
from ..stdlib.tiling import interleave_loop
from ..stdlib.vectorize import fma_rule, vectorize

__all__ = [
    "producer_loop_nest",
    # Schedule-valued library (the primary surface)
    "tile",
    "parallel",
    "vectorize_stage",
    "store_in",
    "compute_store_at",
    "compute_at",
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
    from ..machines import AVX512

    machine = machine or AVX512
    lanes = machine.vec_width(precision)
    if width % lanes:
        raise SchedulingError(
            f"H_vectorize: width {width} is not a multiple of the {lanes} {precision} lanes of {machine.name}"
        )
    loop = _loop_of(p, stage, iter_name)
    p = vectorize(
        p,
        loop,
        lanes,
        precision,
        machine.mem_type,
        machine.get_instructions(precision),
        rules=[fma_rule],
        tail="cut",
    )
    return interleave_loop(p, p.forward(loop), width // lanes)


def _store_in_impl(p, buf_name: str, memory):
    """``Func.store_in(...)`` — change the storage of an intermediate buffer."""
    return set_memory(p, buf_name, memory)


def _compute_store_at_impl(p, producer: str, consumer: str, at_iter: str):
    """``producer.compute_at(consumer, at_iter)`` (with storage at the same
    level): recompute the producer tile inside the consumer's ``at_iter`` loop.

    Implementation follows Figure 10: user-level bounds inference determines
    which window of the producer each consumer tile reads; the producer's
    original full-image computation is deleted and a tile-local recomputation
    (plus tile-local storage) is staged inside the consumer loop.
    """
    consumer_at = _loop_of(p, consumer, at_iter)

    # which window of the producer does one iteration of `at_iter` consume?
    bounds = infer_bounds(p, consumer_at.body(), producer)

    # find the producer's defining loop nest and its per-element expression
    prod_nest = producer_loop_nest(p, producer)
    prod_assign = prod_nest.find(f"{producer}[_] = _")
    prod_rhs = prod_assign.rhs()._node()
    prod_loops = loop_nest(p, prod_nest)
    prod_iters = [l.iter_sym() for l in prod_loops]

    from ..ir.build import substitute_reads
    from ..ir.types import index_t, int_t

    # build the tile-local recomputation:
    #   for t0 in (0, extent0): ... producer[lo0 + t0, ...] = rhs[iters -> lo + t]
    new_iters = [N.Sym(f"t{k}") if False else None for k in range(len(bounds.lo))]
    from ..ir.syms import Sym

    new_iters = [Sym(f"{producer}_t{k}") for k in range(len(bounds.lo))]
    subst = {}
    for it, lo, new_it in zip(prod_iters, bounds.lo, new_iters):
        subst[it] = N.BinOp("+", lo, N.Read(new_it, [], index_t), index_t)
    new_rhs = substitute_reads(prod_rhs, subst)
    idx_exprs = [
        N.BinOp("+", lo, N.Read(it, [], index_t), index_t)
        for lo, it in zip(bounds.lo, new_iters)
    ]
    inner: N.Stmt = N.Assign(prod_assign._node().name, idx_exprs, new_rhs, prod_assign._node().typ)
    extents = [
        N.BinOp("-", hi, lo, index_t) for lo, hi in zip(bounds.lo, bounds.hi)
    ]
    for it, ext in zip(reversed(new_iters), reversed(extents)):
        inner = N.For(it, N.Const(0, int_t), ext, [inner], "seq")

    # splice the recomputation at the top of the consumer tile loop and delete
    # the producer's original full-image loop nest; one transactional session
    # forwards the producer cursor across the insertion automatically
    from ..ir.edit import EditSession

    session = EditSession(p)
    session.insert_stmts(consumer_at.body().before(), [inner])
    session.delete(prod_nest)
    p = session.finish()

    return simplify(p)


def _compute_at_impl(p, producer: str, consumer: str, at_iter: str):
    """Alias of ``compute_store_at`` (Halide stores at the compute level when
    no explicit ``store_at`` is given)."""
    return _compute_store_at_impl(p, producer, consumer, at_iter)


# ---------------------------------------------------------------------------
# The first-class library surface: each operation is a Schedule factory
# (curried — ``tile("out", "y", "x", "yi", "xi", 32, 256)`` is a value that
# composes with ``>>``, ``try_`` and knobs), lifted from the implementations
# above.  They also register on ``repro.api.S`` under their bare names.
# ---------------------------------------------------------------------------

from ..api import lift_op as _lift_op

tile = _lift_op(_tile_impl, "H_tile", register=True)
parallel = _lift_op(_parallel_impl, "H_parallel", register=True)
vectorize_stage = _lift_op(_vectorize_stage_impl, "H_vectorize", register=True)
store_in = _lift_op(_store_in_impl, "H_store_in", register=True)
compute_store_at = _lift_op(_compute_store_at_impl, "H_compute_store_at", register=True)
compute_at = _lift_op(_compute_at_impl, "H_compute_at", register=True)

