"""Tiling, staging, and loop-restructuring library functions ("std-lib").

Everything here is user-level code composed from the scheduling primitives —
``tile2D`` and friends from Section 3, plus the staging/unrolling helpers used
by the BLAS, Halide and Gemmini libraries (``tile_loops``, ``round_loop``,
``unroll_and_jam``, ``interleave_loop``, ``auto_stage_mem``,
``hoist_from_loop``, ``unroll_loops``, ``cleanup``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from ..analysis.effects import accesses_of
from ..analysis.linear import const_value
from ..cursors.cursor import ForCursor, IfCursor, InvalidCursor, make_stmt_cursor
from ..errors import InvalidCursorError, SchedulingError
from ..ir import nodes as N
from ..ir.build import stmt_list_field_paths
from ..primitives import (
    delete_buffer,
    divide_loop,
    eliminate_dead_code,
    fission,
    lift_alloc,
    lift_scope,
    mult_loops,
    remove_loop,
    reorder_loops,
    reorder_stmts,
    set_memory,
    simplify,
    stage_mem,
    unroll_loop,
)
from .higher_order import repeat
from .inspection import get_inner_loop, infer_bounds, loop_nest

__all__ = [
    "tile2D",
    "tilenD",
    "general_tile2D",
    "tile_loops",
    "tile_loops_bottom_up",
    "round_loop",
    "unroll_and_jam",
    "interleave_loop",
    "auto_stage_mem",
    "hoist_from_loop",
    "unroll_loops",
    "unroll_all",
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
    orig_p = p
    try:
        p = tile2D(p, i_lp, j_lp, i_itrs, j_itrs, i_sz, j_sz)
    except SchedulingError:
        p = divide_loop(orig_p, i_lp, i_sz, i_itrs, tail="guard")
        p = divide_loop(p, j_lp, j_sz, j_itrs, tail="guard")
        p = lift_scope(p, j_itrs[0])
        p = lift_scope(p, j_itrs[0])
    return p


# ---------------------------------------------------------------------------
# General tiling helpers
# ---------------------------------------------------------------------------


def _iter_names(p, base: str) -> Tuple[str, str]:
    """Pick fresh-ish iterator names derived from a loop's name."""
    return f"{base}o", f"{base}i"


def tile_loops(p, loop_sizes: Sequence[Tuple[object, int]], perfect: bool = False):
    """Divide each ``(loop, size)`` pair and hoist all the outer loops above
    all the inner loops.  Returns ``(p, [inner_loop_cursors])``."""
    outer_names: List[str] = []
    inner_names: List[str] = []
    for loop, size in loop_sizes:
        loop_c = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
        base = loop_c.name()
        on, inn = _iter_names(p, base)
        p = divide_loop(p, loop_c, size, [on, inn], perfect=perfect, tail="perfect" if perfect else "cut")
        outer_names.append(on)
        inner_names.append(inn)
    # hoist outer loops: for the k-th divided loop, its outer needs to move up
    # past the inner loops of all previously divided loops
    for k in range(1, len(outer_names)):
        for _ in range(k):
            p = lift_scope(p, outer_names[k])
    inners = [p.find_loop(n) for n in inner_names]
    return p, inners


def tile_loops_bottom_up(p, top_loop, sizes: Sequence[int], tail: str = "cut"):
    """Tile a perfect loop nest starting at ``top_loop`` with one blocking
    factor per nesting level (used for memory-hierarchy blocking in the GEMM
    schedule of Appendix C)."""
    top_loop = p.forward(top_loop) if getattr(top_loop, "_proc", p) is not p else top_loop
    nest = loop_nest(p, top_loop)
    if len(sizes) > len(nest):
        raise SchedulingError("tile_loops_bottom_up: more tile sizes than loops in the nest")
    pairs = [(nest[i], sizes[i]) for i in range(len(sizes)) if sizes[i] is not None]
    names = [c.name() for c, _ in pairs]
    for name, (loop_c, size) in zip(names, pairs):
        loop_c = p.find_loop(name)
        hi = const_value(loop_c.hi()._node())
        perfect = hi is not None and hi % size == 0
        on, inn = _iter_names(p, name)
        p = divide_loop(p, loop_c, size, [on, inn], tail="perfect" if perfect else tail)
    # bring all the `o` loops to the top, preserving their relative order
    for k in range(1, len(names)):
        for _ in range(k):
            try:
                p = lift_scope(p, f"{names[k]}o")
            except SchedulingError:
                break
    return p


def round_loop(p, loop, factor: int, up: bool = True):
    """Round a loop's trip count up to a multiple of ``factor`` by adding a
    guard: ``for i in seq(0, N)`` becomes
    ``for i in seq(0, ((N+factor-1)/factor)*factor): if i < N: ...``."""
    if not up:
        raise SchedulingError("round_loop: only rounding up is supported")
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    p = divide_loop(p, loop, factor, [f"{name}_r_o", f"{name}_r_i"], tail="guard")
    p = mult_loops(p, p.find_loop(f"{name}_r_o"), name)
    return simplify(p)


def unroll_and_jam(p, loop, factor: int, perfect: bool = False):
    """Unroll-and-jam: batch ``factor`` iterations of an outer loop into the
    inner loop and unroll them (the general-matrix strategy of Section 6.2.2)."""
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    hi = const_value(loop.hi()._node())
    tail = "perfect" if (perfect or (hi is not None and hi % factor == 0)) else "cut"
    p = divide_loop(p, loop, factor, [f"{name}o", f"{name}i"], tail=tail)
    # jam: move the `factor`-sized loop inside the (single) nested loop
    ji_loop = p.find_loop(f"{name}i")
    body = ji_loop.body()
    if len(body) == 1 and isinstance(body[0], ForCursor):
        p = lift_scope(p, body[0])
        ji_loop = p.find_loop(f"{name}i")
    p = unroll_loop(p, ji_loop)
    return p


def interleave_loop(p, loop, factor: int, mem=None, tail: str = "cut"):
    """Interleave ``factor`` iterations of a loop to expose instruction-level
    parallelism (divide + unroll the inner loop)."""
    if factor <= 1:
        return p
    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    name = loop.name()
    hi = const_value(loop.hi()._node())
    if hi is not None and hi % factor == 0:
        tail = "perfect"
    try:
        p = divide_loop(p, loop, factor, [f"{name}_u_o", f"{name}_u_i"], tail=tail)
    except SchedulingError:
        return p
    # the divided loop's cursor forwards to the `_u_o` loop; by name, another
    # interleaved loop's `_u_i` tail could answer
    return unroll_loop(p, p.forward(loop).body()[0])


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def auto_stage_mem(p, scope, buf_name: str, new_name: Optional[str] = None, *, rc: bool = False, accum: bool = False, init_zero: bool = False):
    """Stage all accesses to ``buf_name`` within ``scope`` through a new
    buffer, using the user-level bounds inference of Section 4 to size the
    window (this is how Halide-style ``compute_at`` storage is allocated).

    With ``rc=True`` returns ``(p, (alloc, load, block, store))`` cursors.
    """
    scope = p.forward(scope) if getattr(scope, "_proc", p) is not p else scope
    new_name = new_name or f"{buf_name}_tmp"
    bounds = infer_bounds(p, scope, buf_name)
    widx = [N.Interval(lo, hi) for lo, hi in zip(bounds.lo, bounds.hi)]
    buf_sym = None
    for a in p._root.args:
        if a.name.name == buf_name:
            buf_sym = a.name
    if buf_sym is None:
        from ..ir.build import walk

        for n, _ in walk(p._root):
            if isinstance(n, N.Alloc) and n.name.name == buf_name:
                buf_sym = n.name
    if buf_sym is None:
        raise SchedulingError(f"auto_stage_mem: unknown buffer {buf_name!r}")
    window = N.WindowExpr(buf_sym, widx, None)

    block = scope.as_block() if not hasattr(scope, "_lo") else scope
    before_len = len(block) if hasattr(block, "__len__") else 1
    p2 = stage_mem(p, block, window, new_name, accum=accum, init_zero=init_zero)

    if not rc:
        return p2

    # locate the generated statements: alloc, (load), block, (store)
    alloc_c = p2.find(f"{new_name}: _")
    nxt = alloc_c.next()
    load_c: object = InvalidCursor(p2)
    store_c: object = InvalidCursor(p2)
    body_start = nxt
    if isinstance(nxt, ForCursor) or (hasattr(nxt, "is_valid") and nxt.is_valid() and _writes_only(nxt, new_name)):
        # heuristically treat the first following loop writing the staging
        # buffer as the load loop
        if _is_copy_loop(nxt, new_name):
            load_c = nxt
            body_start = nxt.next()
    # the store loop, if present, is the copy loop after the block
    cur = body_start
    last_valid = None
    while hasattr(cur, "is_valid") and cur.is_valid():
        last_valid = cur
        nxt2 = cur.next()
        if not nxt2.is_valid():
            break
        cur = nxt2
    if last_valid is not None and _is_copy_loop(last_valid, new_name) and last_valid != load_c:
        store_c = last_valid
    return p2, (alloc_c, load_c, body_start, store_c)


def _writes_only(cursor, name: str) -> bool:
    try:
        return name in str(cursor)
    except Exception:  # pragma: no cover - defensive
        return False


def _is_copy_loop(cursor, staged_name: str) -> bool:
    if not isinstance(cursor, ForCursor):
        return False
    text = str(cursor)
    return staged_name in text and ("=" in text)


# ---------------------------------------------------------------------------
# Hoisting / unrolling / cleanup
# ---------------------------------------------------------------------------


def hoist_from_loop(p, loop):
    """Hoist loop-invariant statements out of ``loop`` (statement-level LICM),
    built from ``reorder_stmts`` / ``fission`` / ``remove_loop``."""
    from .elevate import hoist_stmt

    loop = p.find_loop(loop) if isinstance(loop, str) else p.forward(loop)
    changed = True
    rounds = 0
    while changed and rounds < 16:
        rounds += 1
        changed = False
        loop_f = p.forward(loop)
        if not loop_f.is_valid() or not isinstance(loop_f, ForCursor):
            break
        body_len = len(loop_f.body())
        for stmt in list(loop_f.body()):
            from ..analysis.effects import body_depends_on_iter, is_idempotent
            from ..ir import nodes as _N

            node = stmt._node()
            if isinstance(node, _N.Alloc):
                continue  # allocations are moved with lift_alloc, not hoisted
            if body_depends_on_iter([node], loop_f.iter_sym()) or not is_idempotent([node]):
                continue
            try:
                res = hoist_stmt(p, stmt)
                p2 = res[0] if isinstance(res, tuple) else res
            except (SchedulingError, InvalidCursorError):
                continue
            # progress means the statement actually left the loop (its body
            # shrank); mere reordering inside the loop does not count and
            # would otherwise loop forever.
            new_loop = p2.forward(loop)
            if (
                p2 is not p
                and new_loop.is_valid()
                and isinstance(new_loop, ForCursor)
                and len(new_loop.body()) < body_len
            ):
                p = p2
                changed = True
                break
    return p


def unroll_loops(p, max_bound: int = 64):
    """Fully unroll every loop whose constant trip count is at most ``max_bound``."""
    changed = True
    guard = 0
    while changed and guard < 200:
        changed = False
        guard += 1
        for loop in p.find("for _ in _: _", many=True):
            if not isinstance(loop, ForCursor):
                continue
            lo = const_value(loop.lo()._node())
            hi = const_value(loop.hi()._node())
            if lo is None or hi is None:
                continue
            if 0 < hi - lo <= max_bound:
                p = unroll_loop(p, loop)
                changed = True
                break
    return p


def unroll_all(p, loops):
    """Unroll every loop cursor in ``loops`` (invalid cursors are skipped)."""
    for loop in loops:
        try:
            loop_f = p.forward(loop) if getattr(loop, "_proc", p) is not p else loop
            if loop_f.is_valid():
                p = unroll_loop(p, loop_f)
        except (SchedulingError, InvalidCursorError):
            continue
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


# ---------------------------------------------------------------------------
# Lift the library into the combinator namespace: every Op-shaped function
# here is available on repro.api.S in curried Schedule form
# (``S.tile2D('i', 'j', ...)``), indistinguishable from a built-in primitive.
# ---------------------------------------------------------------------------

from ..api import register_op as _register_op  # noqa: E402

for _op in (
    tile2D,
    tilenD,
    general_tile2D,
    tile_loops_bottom_up,
    round_loop,
    unroll_and_jam,
    interleave_loop,
    hoist_from_loop,
    unroll_loops,
    cleanup,
):
    _register_op(_op)
del _op
