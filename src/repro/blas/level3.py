"""Matrix-matrix multiply (Section 6.2.3, Appendix C).

``gen_ukernel`` turns the ``k`` loop of a rank-k update over one ``M_r × N_r``
tile into a register-resident, fully vectorised micro-kernel (one function
generates every M×16n variant).  ``optimize_level_3`` builds the whole GEMM
around it in the GotoBLAS/BLIS shape: register blocking of ``(i, j)``, the
block loops outermost with ``jo`` outside ``io``, ``k`` inside the tile.
``sgemm_micro_kernel`` is the same generator on the partially evaluated tile
of Appendix C.

What is there: the micro-kernel and the two block loops.  What is not: ``kc``
blocking and B-panel packing (they pay only beyond L2), masked tails (the
``M % M_r`` rows and ``N % N_r`` columns run scalar) and a parallel outer
loop — ROADMAP, "Peak-hardware GEMM".
"""

from __future__ import annotations

from ..primitives import divide_dim, divide_loop, fission, rename, reorder_loops, set_memory, unroll_loop
from ..stdlib.tiling import auto_stage_mem, cleanup
from ..stdlib.vectorize import fma_rule, vectorize
from .kernels import SGEMM

__all__ = ["gen_ukernel", "optimize_level_3", "schedule_sgemm", "sgemm_micro_kernel"]


def gen_ukernel(p, k_loop, machine, precision: str = "f32"):
    """Generate a register-tiled micro-kernel from a rank-k update.

    ``k_loop`` is the ``k`` loop of a tile nest ``for k: for i: for j:
    C[.., ..] += A[.., k] * B[k, ..]`` whose ``(i, j)`` extent is the
    ``M_r × N_r_vecs·vw`` micro-tile.  The ``C`` tile is held in
    ``[M_r, N_r_vecs, vw]`` vector registers across the loop, and the tile
    (nothing else of ``p``) is mapped to instructions and unrolled.
    """
    vw = machine.vec_width(precision)
    instrs = machine.get_instructions(precision)
    mem = machine.mem_type

    # the C micro-tile lives in registers around the k loop
    p, (tile, load, _, store) = auto_stage_mem(p, k_loop, "C", "C_reg")
    p = set_memory(p, tile, mem)
    # one register per innermost row, and before vectorising: the instructions
    # take windows of the tile, and divide_dim refuses a windowed buffer
    p = divide_dim(p, tile, 1, vw)

    # the load loop, the update and the store loop: rows of vectors.  The
    # copies are single operations already: divided into lane loops, they are
    # mapped to loads and stores by the sweep that ends `vectorize`
    rows = [p.forward(load), p.forward(k_loop).body()[0], p.forward(store)]
    load_lane, update_lane, store_lane = lanes = [row.body()[0] for row in rows]
    for copy in (load_lane, store_lane):
        p = divide_loop(p, copy, vw, [f"{copy.name()}o", f"{copy.name()}i"], perfect=True)
    p = vectorize(p, update_lane, vw, precision, mem, instrs, rules=[fma_rule])
    # a lane loop's cursor now points at the loop over the row's vectors
    for row, lane in zip(rows, lanes):
        p = unroll_loop(unroll_loop(p, lane), row)
    return p


def sgemm_micro_kernel(machine, M_r: int = 6, N_r_vecs: int = 4, precision: str = "f32"):
    """Build the ``M_r × (N_r_vecs·vw)`` micro-kernel evaluated in Appendix C."""
    vw = machine.vec_width(precision)
    p = rename(SGEMM, f"basic_kernel_{M_r}x{N_r_vecs}")
    p = p.partial_eval(M=M_r, N=N_r_vecs * vw)
    return cleanup(gen_ukernel(p, p.find_loop("k"), machine, precision))


def optimize_level_3(p, machine, precision: str = "f32", M_r: int = 6, N_r_vecs: int = 2):
    """Schedule a rank-k update ``for k: for i: for j: C[i, j] += A[i, k] *
    B[k, j]``: ``(i, j)`` tiled by ``M_r × N_r_vecs·vw``, each tile a
    :func:`gen_ukernel` micro-kernel.  The defaults hold twelve accumulators,
    two ``B`` vectors and one broadcast in 15 of AVX2's 16 registers."""
    k, i, j = (p.find_loop(name) for name in "kij")

    # tile (i, j), and split the row and column tails off while k is still
    # outermost: they stay scalar, in the j-contiguous order they came in
    p = divide_loop(p, i, M_r, ["io", "ii"], tail="cut")
    p = fission(p, p.forward(i).after())
    p = divide_loop(p, j, N_r_vecs * machine.vec_width(precision), ["jo", "ji"], tail="cut")
    p = fission(p, p.forward(j).after(), n_lifts=3)

    # k io ii jo ji -> jo io k ii ji: k inside the tile, and jo outside io so
    # that one B panel stays in cache across all the row blocks
    for outer in (p.forward(i).body()[0], k, k, i):
        p = reorder_loops(p, outer)

    return cleanup(gen_ukernel(p, k, machine, precision))


def schedule_sgemm(machine, precision: str = "f32", M_r: int = 6, N_r_vecs: int = 2):
    """The full SGEMM for ``machine`` (:func:`optimize_level_3` on the
    object code of :data:`repro.blas.kernels.SGEMM`)."""
    return optimize_level_3(rename(SGEMM, "sgemm_exo"), machine, precision, M_r, N_r_vecs)
