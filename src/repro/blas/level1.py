"""``optimize_level_1`` — the shared schedule for all BLAS level-1 kernels
(Section 6.2.1, Appendix D.1).

The same library function optimises every O(n) kernel for any vector machine:
CSE, auto-vectorisation (with per-lane partial sums for reductions), LICM of
broadcasts, and loop interleaving for ILP.
"""

from __future__ import annotations

from ..api import try_op
from ..stdlib.tiling import cleanup, interleave_loop
from ..stdlib.vectorize import CSE, LICM, fma_rule, vectorize

__all__ = ["optimize_level_1"]


def optimize_level_1(proc, loop, precision: str, machine, interleave_factor: int = 2):
    """Optimise a single-loop (level-1 style) kernel for ``machine``.

    Mirrors the Appendix D.1 listing: pick the vector width and instructions
    from the machine description, CSE the loop body, auto-vectorise, hoist
    loop-invariant broadcasts, then interleave iterations of the vectorised
    loop to expose instruction-level parallelism.

    When the loop cannot be vectorised with this strategy, the attempt is
    rolled back whole to the (correct) scalar code and the trace keeps a
    ``recovered`` entry saying what refused, and why.
    """
    vec_width = machine.vec_width(precision)
    instrs = machine.get_instructions(precision)
    memory = machine.mem_type

    loop = proc.find_loop(loop) if isinstance(loop, str) else proc.forward(loop)

    proc = CSE(proc, loop.body(), precision)
    vec = try_op(proc, vectorize, proc.forward(loop), vec_width, precision, memory, instrs, rules=[fma_rule])
    if vec is not proc:
        # the vectorised loop is what the divided loop's cursor forwards to
        vec = try_op(vec, LICM, vec.forward(loop))
        vec = try_op(vec, interleave_loop, vec.forward(loop), interleave_factor)
    return cleanup(vec)
