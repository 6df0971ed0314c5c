"""Matrix-matrix multiply (Section 6.2.3, Appendix C).

``gen_ukernel`` turns a rank-k update into a register-tiled, fully vectorised
micro-kernel (one function generates every M×16n variant), and
``schedule_sgemm`` builds the full GEMM: register blocking of the (i, j) tile
and vectorisation of the j loops with FMA instructions (no cache blocking
yet: ROADMAP, "Peak-hardware GEMM").
"""

from __future__ import annotations

from ..api import try_op
from ..primitives import divide_loop, lift_scope, rename, set_memory, set_precision, simplify
from ..stdlib.tiling import auto_stage_mem, cleanup, unroll_loops
from ..stdlib.vectorize import fma_rule, vectorize
from .kernels import SGEMM

__all__ = ["gen_ukernel", "schedule_sgemm", "sgemm_micro_kernel"]


def gen_ukernel(p, machine, precision: str = "f32", M_r: int = 6, N_r_vecs: int = 4):
    """Generate a register-tiled micro-kernel from a rank-k update.

    ``p`` must be a (partially evaluated) rank-k update with loops ``k, i, j``
    computing ``C[i, j] += A[i, k] * B[k, j]`` where the (i, j) extent is the
    micro-tile.  Returns the scheduled micro-kernel.
    """
    vw = machine.vec_width(precision)
    instrs = machine.get_instructions(precision)
    mem = machine.mem_type

    # stage the C micro-tile into registers around the k loop
    k_loop = p.find_loop("k")
    p, _ = auto_stage_mem(p, k_loop, "C", "C_reg")
    p = set_memory(p, "C_reg", mem)
    p = set_precision(p, "C_reg", precision)

    # vectorise the load loop, the inner j loop of the update, and the store loop
    for loop_name in ("i1", "j", "i1"):
        p = try_op(p, vectorize, loop_name, vw, precision, mem, instrs, rules=[fma_rule])

    p = simplify(p)
    p = unroll_loops(p, max_bound=max(M_r, N_r_vecs) * 2)
    return cleanup(p)


def sgemm_micro_kernel(machine, M_r: int = 6, N_r_vecs: int = 4, K: int = 64, precision: str = "f32"):
    """Build the ``M_r × (N_r_vecs·vw)`` micro-kernel evaluated in Appendix C."""
    vw = machine.vec_width(precision)
    p = rename(SGEMM, f"basic_kernel_{M_r}x{N_r_vecs}")
    p = p.partial_eval(M=M_r, N=N_r_vecs * vw)
    return gen_ukernel(p, machine, precision, M_r, N_r_vecs)


def schedule_sgemm(machine, precision: str = "f32", M_r: int = 6, N_r_vecs: int = 1):
    """Schedule the full SGEMM for ``machine``: register blocking + vectorised
    FMA inner loops."""
    vw = machine.vec_width(precision)
    instrs = machine.get_instructions(precision)
    mem = machine.mem_type
    N_r = N_r_vecs * vw

    p = rename(SGEMM, "sgemm_exo")

    # register blocking of the (i, j) micro-tile: divide i by M_r and j by N_r
    # and bring the block loops outside (the GotoBLAS/BLIS micro-kernel shape)
    p = divide_loop(p, "i", M_r, ["i_r_o", "i_r_i"], tail="cut")
    p = divide_loop(p, "j", N_r, ["j_r_o", "j_r_i"], tail="cut")
    p = simplify(try_op(p, lift_scope, "j_r_o"))

    # vectorise the micro-tile's j loop with FMAs (the M % M_r tail rows and
    # the N % N_r tail columns stay scalar)
    p = try_op(p, vectorize, "j_r_i", vw, precision, mem, instrs, rules=[fma_rule])

    return cleanup(p)
