"""Tiling, staging, and loop-restructuring library functions ("std-lib").

Everything here is user-level code composed from the scheduling primitives —
``tile2D`` and friends from Section 3, plus the staging/unrolling helpers used
by the BLAS, Halide and Gemmini libraries (``round_loop``, ``unroll_and_jam``,
``interleave_loop``, ``auto_stage_mem``, ``hoist_from_loop``, ``cleanup``).
Each is also on :data:`repro.api.S` in curried Schedule form
(``S.tile2D('i', 'j', ...)``), indistinguishable from a built-in primitive.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.effects import accesses_of, body_depends_on_iter, is_idempotent
from ..analysis.linear import const_value
from ..api import attempt, register_op, try_op
from ..cursors.cursor import ForCursor, InvalidCursor, make_stmt_cursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import stmt_list_field_paths
from ..ir.printing import expr_str
from ..primitives import (
    delete_buffer,
    divide_loop,
    lift_scope,
    mult_loops,
    simplify,
    stage_mem,
    unroll_loop,
)
from .elevate import hoist_stmt
from .inspection import infer_bounds, loop_nest

__all__ = [
    "tile2D",
    "tilenD",
    "general_tile2D",
    "tile_loops_bottom_up",
    "round_loop",
    "unroll_and_jam",
    "interleave_loop",
    "auto_stage_mem",
    "hoist_from_loop",
    "cleanup",
]


# ---------------------------------------------------------------------------
# The running examples of Section 3
# ---------------------------------------------------------------------------


def tile2D(p, i_lp, j_lp, i_itrs, j_itrs, i_sz, j_sz):
    """Tile a 2-deep loop nest (Section 3.2) — behaves exactly like a built-in."""
    p = divide_loop(p, i_lp, i_sz, i_itrs, perfect=True)
    p = divide_loop(p, j_lp, j_sz, j_itrs, perfect=True)
    p = lift_scope(p, j_itrs[0])
    return p


def tilenD(p, loops, new_iters, tile_sizes):
    """Tile an arbitrary-depth loop nest (Section 3.3)."""
    for i, loop in enumerate(loops):
        p = divide_loop(p, loop, tile_sizes[i], new_iters[i], perfect=True)
    for i, _ in enumerate(loops):
        for _j in range(0, i):
            p = lift_scope(p, new_iters[i][0])
    return p


def general_tile2D(p, i_lp, j_lp, i_itrs, j_itrs, i_sz, j_sz):
    """Tile, falling back to guarded tiling when sizes do not divide evenly
    (Section 3.3)."""
    tiled = attempt("general_tile2D: perfect tiling", tile2D, p, i_lp, j_lp, i_itrs, j_itrs, i_sz, j_sz)
    if tiled is not None:
        return tiled
    p = divide_loop(p, i_lp, i_sz, i_itrs, tail="guard")
    p = divide_loop(p, j_lp, j_sz, j_itrs, tail="guard")
    p = lift_scope(p, j_itrs[0])
    return lift_scope(p, j_itrs[0])


# ---------------------------------------------------------------------------
# General tiling helpers
# ---------------------------------------------------------------------------


def tile_loops_bottom_up(p, top_loop, sizes: Sequence[Optional[int]], tail: str = "cut"):
    """Tile a perfect loop nest starting at ``top_loop`` with one blocking
    factor per nesting level (``None`` leaves a level alone), the block loops
    outermost — memory-hierarchy blocking as in the GEMM schedule of
    Appendix C."""
    nest = loop_nest(p, top_loop)
    if len(sizes) > len(nest):
        raise SchedulingError("tile_loops_bottom_up: more tile sizes than loops in the nest")
    tiled = [(loop, size) for loop, size in zip(nest, sizes) if size is not None]
    for loop, size in tiled:
        loop = p.forward(loop)
        name = loop.name()
        hi = const_value(loop.hi()._node())
        perfect = hi is not None and hi % size == 0
        p = divide_loop(p, loop, size, [f"{name}o", f"{name}i"], tail="perfect" if perfect else tail)
    # bring all the `o` loops (what the divided loops' cursors forward to) to
    # the top, preserving their relative order
    for k, (loop, _) in enumerate(tiled):
        for _ in range(k):
            lifted = try_op(p, lift_scope, loop)
            if lifted is p:
                break
            p = lifted
    return p


def round_loop(p, loop, factor: int):
    """Round a loop's trip count up to a multiple of ``factor`` by adding a
    guard: ``for i in seq(0, N)`` becomes
    ``for i in seq(0, ((N+factor-1)/factor)*factor): if i < N: ...``."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    p = divide_loop(p, loop, factor, [f"{name}_r_o", f"{name}_r_i"], tail="guard")
    # the divided loop's cursor forwards to the `_r_o` loop; a name could be
    # answered by another loop of the procedure
    p = mult_loops(p, p.forward(loop), name)
    return simplify(p)


def unroll_and_jam(p, loop, factor: int, perfect: bool = False):
    """Unroll-and-jam: batch ``factor`` iterations of an outer loop into the
    inner loop and unroll them (the general-matrix strategy of Section 6.2.2)."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    hi = const_value(loop.hi()._node())
    tail = "perfect" if (perfect or (hi is not None and hi % factor == 0)) else "cut"
    p = divide_loop(p, loop, factor, [f"{name}o", f"{name}i"], tail=tail)
    # jam: move the `factor`-sized loop (followed by cursor: the procedure may
    # hold another loop of that name) inside the (single) nested loop
    ji_loop = p.forward(loop).body()[0]
    body = ji_loop.body()
    if len(body) == 1 and isinstance(body[0], ForCursor):
        p = lift_scope(p, body[0])
    return unroll_loop(p, ji_loop)


def interleave_loop(p, loop, factor: int):
    """Interleave ``factor`` iterations of a loop to expose instruction-level
    parallelism (divide + unroll the inner loop)."""
    if factor <= 1:
        return p
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    hi = const_value(loop.hi()._node())
    tail = "perfect" if hi is not None and hi % factor == 0 else "cut"
    p = divide_loop(p, loop, factor, [f"{name}_u_o", f"{name}_u_i"], tail=tail)
    # the divided loop's cursor forwards to the `_u_o` loop; by name, another
    # interleaved loop's `_u_i` tail could answer
    return unroll_loop(p, p.forward(loop).body()[0])


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def auto_stage_mem(p, scope, buf_name: str, new_name: Optional[str] = None):
    """Stage all accesses to ``buf_name`` within ``scope`` through a new
    buffer, using the user-level bounds inference of Section 4 to size the
    window.  Returns ``(p, (alloc, load, block, store))`` cursors; ``load`` /
    ``store`` are invalid when the staging needed no such loop."""
    new_name = new_name or f"{buf_name}_tmp"
    bounds = infer_bounds(p, scope, buf_name)
    dims = ", ".join(f"{expr_str(lo)}:{expr_str(hi)}" for lo, hi in zip(bounds.lo, bounds.hi))
    p = stage_mem(p, scope, f"{buf_name}[{dims}]", new_name)

    # locate the generated statements: alloc, (load), block, (store) — a copy
    # loop right after the allocation is the load, one closing the statement
    # list the store
    alloc = p.find(f"{new_name}: _")
    load = store = InvalidCursor(p)
    body_start = alloc.next()
    if _is_copy_loop(body_start, new_name):
        load, body_start = body_start, body_start.next()
    last = body_start
    while (following := last.next()).is_valid():
        last = following
    if last != load and _is_copy_loop(last, new_name):
        store = last
    return p, (alloc, load, body_start, store)


def _is_copy_loop(cursor, staged_name: str) -> bool:
    if not isinstance(cursor, ForCursor):
        return False
    text = str(cursor)
    return staged_name in text and ("=" in text)


# ---------------------------------------------------------------------------
# Hoisting / unrolling / cleanup
# ---------------------------------------------------------------------------


def _hoist_out(p, loop, stmt):
    """``hoist_stmt``, refused unless the statement left ``loop`` (its body
    shrank): mere reordering inside the loop is no progress, and would
    otherwise loop forever."""
    res = hoist_stmt(p, stmt)
    hoisted = res[0] if isinstance(res, tuple) else res
    after = hoisted.forward(loop)
    if not (isinstance(after, ForCursor) and len(after.body()) < len(p.forward(loop).body())):
        raise SchedulingError("hoist_from_loop: the statement did not leave the loop")
    return hoisted


def hoist_from_loop(p, loop):
    """Hoist loop-invariant statements out of ``loop`` (statement-level LICM),
    built from ``reorder_stmts`` / ``fission`` / ``remove_loop``."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    for _ in range(16):
        loop_f = p.forward(loop)
        if not isinstance(loop_f, ForCursor):
            break
        for stmt in loop_f.body():
            node = stmt._node()
            # allocations are moved with lift_alloc, not hoisted
            if (
                isinstance(node, N.Alloc)
                or body_depends_on_iter([node], loop_f.iter_sym())
                or not is_idempotent([node])
            ):
                continue
            hoisted = try_op(p, _hoist_out, loop, stmt)
            if hoisted is not p:
                p = hoisted
                break
        else:
            break  # a whole round hoisted nothing
    return p


def cleanup(p):
    """Simplify index arithmetic, remove dead branches and unused buffers."""
    p = simplify(p)
    while True:
        used = {a.buf for a in accesses_of(p._root.body)}
        dead = next(
            (
                owner + ((attr, i),)
                for owner, attr, stmts in stmt_list_field_paths(p._root)
                for i, s in enumerate(stmts)
                if isinstance(s, N.Alloc) and s.name not in used
            ),
            None,
        )
        if dead is None:
            return p
        p = delete_buffer(p, make_stmt_cursor(p, dead))


for _op in (
    tile2D,
    tilenD,
    general_tile2D,
    tile_loops_bottom_up,
    round_loop,
    unroll_and_jam,
    interleave_loop,
    hoist_from_loop,
    cleanup,
):
    register_op(_op)
del _op
