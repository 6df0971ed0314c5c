"""``optimize_level_2_general`` and ``opt_skinny`` — the shared schedules for
BLAS level-2 kernels (Section 6.2.2, Appendix D.2).

* General matrices: unroll-and-jam the row loop to batch several dot products,
  CSE the shared vector load, and hand the inner loop to ``optimize_level_1``.
* Triangular matrices: the inner bound depends on the outer iterator, so the
  inner loop is shifted/rounded before the same machinery applies; when that
  is not possible the schedule falls back to vectorising the inner loop only.
* Skinny matrices (Figure 7): stage the reused vector into registers around
  the whole doubly-nested loop, vectorising the load / compute / store loops
  with predicated instructions.
"""

from __future__ import annotations

from ..analysis.linear import const_value
from ..api import try_op
from ..cursors.cursor import ForCursor
from ..ir.build import used_syms_expr
from ..primitives import set_memory, set_precision, shift_loop
from ..stdlib.higher_order import filter_c, is_invalid
from ..stdlib.inspection import get_inner_loop, get_reused_vector
from ..stdlib.tiling import auto_stage_mem, cleanup, interleave_loop, unroll_and_jam
from ..stdlib.vectorize import fma_rule, vectorize
from .level1 import optimize_level_1

__all__ = ["optimize_level_2_general", "opt_skinny"]


def _inner_loops(proc, outer: ForCursor):
    """All loops directly nested in ``outer``'s body."""
    return [c for c in outer.body() if isinstance(c, ForCursor)]


def optimize_level_2_general(proc, o_loop, precision: str, machine, r_fac: int = 2, c_fac: int = 2):
    """Optimise an O(n²) kernel: batch ``r_fac`` rows (unroll-and-jam), then
    treat each resulting inner loop as a level-1 problem — for a general
    matrix one loop whose body is ``r_fac`` rows over the shared vector's one
    load, each reduction row on an accumulator of its own."""
    o_loop = proc.find_loop(o_loop) if isinstance(o_loop, str) else proc.forward(o_loop)

    inner = _inner_loops(proc, o_loop)
    it = o_loop.iter_sym()
    triangular = any(
        it in used_syms_expr(il.hi()._node()) or it in used_syms_expr(il.lo()._node()) for il in inner
    )

    if not triangular and len(inner) == 1:
        proc = try_op(proc, unroll_and_jam, o_loop, r_fac)

    # vectorise every (remaining) inner loop as a level-1 problem (a jammed
    # outer loop is what the divided loop's cursor forwards to)
    cleaned = None
    for il in _inner_loops(proc, proc.forward(o_loop)):
        il = proc.forward(il)
        # inner loops of triangular kernels may not start at zero — shift them
        if const_value(il.lo()._node()) != 0:
            proc = try_op(proc, shift_loop, il, 0)
        out = try_op(proc, optimize_level_1, il, precision, machine, c_fac)
        if out is not proc:
            proc = cleaned = out  # optimize_level_1 cleans up after itself

    return proc if proc is cleaned else cleanup(proc)


def opt_skinny(proc, out_loop, vw: int, mem, precision: str, machine, interleave: int = 2):
    """The skinny-matrix schedule of Figure 7b: keep the reused vector in
    registers across the whole quadratic loop.

    (1) Inspect the program to find the inner loop and the reused vector.
    (2) Stage the reused vector into a register-resident buffer around the
        doubly nested loops.
    (3) Vectorise the load loop, the inner math loop, and the store loop.
    (4) Interleave the inner loop for ILP and clean up.
    """
    out_loop = proc.find_loop(out_loop) if isinstance(out_loop, str) else proc.forward(out_loop)

    # (1) inspection
    in_loop = get_inner_loop(proc, out_loop)
    vec_name = get_reused_vector(proc, in_loop).name()

    # (2) stage the reused vector into registers around the outer loop
    staged_name = f"{vec_name}_reg"
    proc, (_, load, _, store) = auto_stage_mem(proc, out_loop, vec_name, staged_name)
    proc = set_memory(proc, staged_name, mem)
    proc = set_precision(proc, staged_name, precision)

    # (3) vectorise the load and store loops, then the inner math loop (all
    # followed by cursor: the procedure may hold other loops of these names)
    instrs = machine.get_instructions(precision)
    for lp in filter_c(~is_invalid)(proc, [load, store]):
        proc = try_op(proc, vectorize, lp, vw, precision, mem, instrs, rules=[fma_rule])
    vec = try_op(proc, vectorize, in_loop, vw, precision, mem, instrs, rules=[fma_rule])

    # (4) interleave the vectorised inner loop (what the divided loop's
    # cursor forwards to) and clean up
    if vec is not proc:
        vec = try_op(vec, interleave_loop, vec.forward(in_loop), interleave)
    return cleanup(vec)
