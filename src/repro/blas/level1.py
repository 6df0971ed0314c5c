"""``optimize_level_1`` — the shared schedule for all BLAS level-1 kernels
(Section 6.2.1, Appendix D.1).

The same library function optimises every O(n) kernel for any vector machine:
CSE, auto-vectorisation (with per-lane partial sums for reductions), LICM of
broadcasts, and loop interleaving for ILP.
"""

from __future__ import annotations

from ..cursors.cursor import ForCursor
from ..errors import InvalidCursorError, SchedulingError  # noqa: F401 - re-raised paths
from ..stdlib.tiling import cleanup, interleave_loop
from ..stdlib.vectorize import CSE, LICM, fma_rule, vectorize

__all__ = ["optimize_level_1"]


def optimize_level_1(
    proc,
    loop,
    precision: str,
    machine,
    interleave_factor: int = 2,
    vec_tail: str = "cut",
    inter_tail: str = "cut",
):
    """Optimise a single-loop (level-1 style) kernel for ``machine``.

    Mirrors the Appendix D.1 listing: pick the vector width and instructions
    from the machine description, CSE the loop body, auto-vectorise, hoist
    loop-invariant broadcasts, then interleave iterations of the vectorised
    loop to expose instruction-level parallelism.
    """
    vec_width = machine.vec_width(precision)
    instrs = machine.get_instructions(precision)
    memory = machine.mem_type

    loop = proc.find_loop(loop) if isinstance(loop, str) else proc.forward(loop)
    loop_name = loop.name()

    proc = CSE(proc, loop.body(), precision)
    loop = proc.find_loop(loop_name)

    try:
        proc = vectorize(
            proc, loop, vec_width, precision, memory, instrs, rules=[fma_rule], tail=vec_tail
        )
    except (SchedulingError, InvalidCursorError):
        # not vectorisable with this strategy — return the (correct) scalar code
        return cleanup(proc)

    # the vectorised loop is the `<name>o` loop created by vectorize
    try:
        vec_loop = proc.find_loop(f"{loop_name}o")
    except InvalidCursorError:
        vec_loop = None

    if vec_loop is not None:
        proc = LICM(proc, vec_loop)
        try:
            vec_loop = proc.find_loop(f"{loop_name}o")
            proc = interleave_loop(proc, vec_loop, interleave_factor, memory, inter_tail)
        except (SchedulingError, InvalidCursorError):
            pass

    return cleanup(proc)
