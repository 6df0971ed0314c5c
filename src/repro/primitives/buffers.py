"""Buffer-transformation primitives (Appendix A.5).

``lift_alloc``, ``sink_alloc``, ``delete_buffer``, ``reuse_buffer``,
``resize_dim``, ``expand_dim``, ``rearrange_dim``, ``divide_dim``,
``mult_dim``, ``unroll_buffer``, ``bind_expr``, ``stage_mem``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..analysis.effects import Access, accesses_disjoint, accesses_of, read_buffers, written_buffers
from ..analysis.linear import const_value, prove, prove_divisible, simplify_expr
from ..cursors.cursor import AllocCursor, BlockCursor, StmtCursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import (
    get_node,
    map_exprs,
    map_stmts,
    rename_sym_in_stmts,
    set_node,
    structurally_equal,
    used_syms_expr,
    walk,
    with_fields,
)
from ..ir.edit import EditSession
from ..ir.memories import DRAM
from ..ir.syms import Sym
from ..ir.types import ScalarType, TensorType, bool_t, index_t
from ._base import (
    block_coords,
    const,
    proc_fact_env,
    require,
    scheduling_primitive,
    stmt_coords,
    to_alloc_cursor,
    to_block_cursor,
    to_expr,
    to_expr_cursor,
    to_loop_cursor,
    to_stmt_cursor,
)

__all__ = [
    "lift_alloc",
    "sink_alloc",
    "delete_buffer",
    "reuse_buffer",
    "resize_dim",
    "expand_dim",
    "rearrange_dim",
    "divide_dim",
    "mult_dim",
    "unroll_buffer",
    "bind_expr",
    "stage_mem",
    "stage_reduction",
]


def _alloc_cursor(proc, buf) -> AllocCursor:
    cur = to_alloc_cursor(proc, buf)
    require(isinstance(cur, AllocCursor), "expected an allocation (not a procedure argument)")
    return cur


_WINDOWED = "buffer is windowed; this transformation does not support windows"


def _map_accesses(stmts, sym: Sym, fn: Callable[[N.Node], dict], *, whole: bool = False, windowed: str = _WINDOWED):
    """Rebuild every element access to ``sym`` in ``stmts`` — reads, writes
    and reductions; with ``whole`` also the index-free ones — with the field
    changes ``fn(access)`` returns.  Only the paths to those accesses are
    rebuilt.  Raises if the buffer is accessed through windows (whole-buffer
    accesses cannot be index-rewritten)."""

    def touched(n) -> bool:
        return n.name is sym and bool(whole or n.idx)

    def fix_expr(e: N.Expr) -> N.Expr:
        if isinstance(e, N.WindowExpr) and e.name is sym:
            raise SchedulingError(windowed)
        if isinstance(e, N.Read) and touched(e):
            return with_fields(e, **fn(e))
        return e

    def fix_stmt(s):
        if isinstance(s, (N.Assign, N.Reduce)) and touched(s):
            return with_fields(s, **fn(s))
        return s

    return map_stmts(map_exprs(stmts, fix_expr), fix_stmt)


def _rewrite_proc_accesses(proc, sym: Sym, idx_fn, retype, *, whole: bool = False):
    """Dimension surgery as one atomic edit: re-index every access to ``sym``
    with ``idx_fn`` and re-declare its allocation(s) as ``retype(old type)``."""

    def fix_alloc(s):
        if isinstance(s, N.Alloc) and s.name is sym:
            return with_fields(s, typ=retype(s.typ))
        return s

    body = _map_accesses(proc._root.body, sym, lambda a: {"idx": idx_fn(list(a.idx))}, whole=whole)
    session = EditSession(proc)
    session.set_root(with_fields(proc._root, body=map_stmts(body, fix_alloc)))
    return session.finish()


# ---------------------------------------------------------------------------
# moving allocations
# ---------------------------------------------------------------------------


@scheduling_primitive
def lift_alloc(proc, alloc, n_lifts: int = 1):
    """Move an allocation out of ``n_lifts`` enclosing loops/ifs."""
    p = proc
    cur = _alloc_cursor(p, alloc)
    for _ in range(n_lifts):
        p, cur = _lift_alloc_once(p, cur)
    return p


def _lift_alloc_once(proc, cur: AllocCursor):
    node = cur._node()
    owner_path, attr, idx = stmt_coords(cur)
    require(bool(owner_path), "lift_alloc: the allocation is already at the procedure top level")
    parent = get_node(proc._root, owner_path)
    require(isinstance(parent, (N.For, N.If)), "lift_alloc: the allocation is not inside a loop or if")
    if isinstance(parent, N.For) and isinstance(node.typ, TensorType):
        for d in node.typ.shape:
            require(
                parent.iter not in used_syms_expr(d),
                "lift_alloc: the buffer shape depends on the loop iterator",
            )
    # destination: the gap right before the enclosing loop/if
    dst_owner, dst_attr, dst_idx = owner_path[:-1], owner_path[-1][0], owner_path[-1][1]
    session = EditSession(proc)
    session.move((owner_path, attr, idx, idx + 1), (dst_owner, dst_attr, dst_idx))
    new_proc = session.finish()
    from ..cursors.cursor import make_stmt_cursor

    new_cur = make_stmt_cursor(new_proc, dst_owner + ((dst_attr, dst_idx),))
    return new_proc, new_cur


@scheduling_primitive
def sink_alloc(proc, alloc):
    """Move an allocation into the immediately following loop/if body (the
    buffer must only be used inside that statement)."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    nxt = cur.next()
    require(nxt.is_valid(), "sink_alloc: there is no statement after the allocation")
    target = nxt._node()
    require(isinstance(target, (N.For, N.If)), "sink_alloc: the next statement must be a loop or if")
    owner_path, attr, idx = stmt_coords(cur)
    parent = get_node(proc._root, owner_path)
    siblings = getattr(parent, attr)
    # the buffer must not be used by any other sibling statement
    for j, s in enumerate(siblings):
        if j in (idx, idx + 1):
            continue
        if node.name in read_buffers([s]) | written_buffers([s]):
            raise SchedulingError("sink_alloc: the buffer is used outside the target statement")

    # destination inside the loop/if body at index 0; source removal shifts the
    # target statement's index down by one, so the post-removal gap coordinates
    # address the target through the *source* index.
    dst_owner = owner_path + ((attr, idx),)
    session = EditSession(proc)
    session.move((owner_path, attr, idx, idx + 1), (dst_owner, "body", 0))
    return session.finish()


@scheduling_primitive
def delete_buffer(proc, alloc):
    """Delete an unused allocation."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    used = {a.buf for a in accesses_of(proc._root.body)}
    require(node.name not in used, "delete_buffer: the buffer is still used")
    owner, attr, idx = stmt_coords(cur)
    session = EditSession(proc)
    session.delete((owner, attr, idx, idx + 1))
    return session.finish()


@scheduling_primitive
def reuse_buffer(proc, buf_a, buf_b):
    """Reuse buffer ``a``'s storage for buffer ``b`` (``s[b ↦ a]``)."""
    cur_a = to_alloc_cursor(proc, buf_a)
    cur_b = _alloc_cursor(proc, buf_b)
    node_b = cur_b._node()
    typ_a, typ_b = cur_a.typ(), node_b.typ
    require(
        structurally_equal(typ_a, typ_b) or (not isinstance(typ_a, TensorType) and typ_a == typ_b),
        "reuse_buffer: the buffers must have the same type and size",
    )
    sym_a = cur_a.buf_sym() if isinstance(cur_a, AllocCursor) else cur_a.sym()
    sym_b = node_b.name

    # `a` must be dead after b's allocation: the first access to `a` in the
    # following statements (if any) must be a full overwrite (an Assign).
    owner, attr, idx = stmt_coords(cur_b)
    owner_node = get_node(proc._root, owner)
    following = getattr(owner_node, attr)[idx + 1 :]
    first_access = None
    for s in following:
        for acc in accesses_of(s):
            if acc.buf is sym_a:
                first_access = acc
                break
        if first_access:
            break
    require(
        first_access is None or first_access.kind == "write",
        "reuse_buffer: the reused buffer is read before being overwritten",
    )

    # delete b's allocation and rename b -> a
    session = EditSession(proc)
    session.delete((owner, attr, idx, idx + 1))
    session.set_field((), "body", rename_sym_in_stmts(session.root.body, sym_b, sym_a))
    return session.finish()


# ---------------------------------------------------------------------------
# dimension surgery
# ---------------------------------------------------------------------------


@scheduling_primitive
def resize_dim(proc, alloc, dim: int, size, offset=0, *, fold: bool = False):
    """Resize dimension ``dim`` of a buffer to ``size`` elements starting at
    ``offset`` (accesses are shifted; with ``fold`` they wrap modulo the new
    size, enabling circular buffers)."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    require(isinstance(node.typ, TensorType), "resize_dim: expected a tensor allocation")
    require(0 <= dim < len(node.typ.shape), "resize_dim: dimension out of range")
    size = to_expr(proc, size, cur._path)
    offset = to_expr(proc, offset, cur._path)

    sym = node.name
    env = proc_fact_env(proc, cur._path)

    def idx_fn(idx: List[N.Expr]) -> List[N.Expr]:
        e = N.BinOp("-", idx[dim], offset, index_t)
        if fold:
            e = N.BinOp("%", e, size, index_t)
        idx[dim] = simplify_expr(e, env)
        return idx

    def retype(t):
        return TensorType(t.base, t.shape[:dim] + [size] + t.shape[dim + 1 :], t.is_window)

    return _rewrite_proc_accesses(proc, sym, idx_fn, retype)


@scheduling_primitive
def expand_dim(proc, alloc, size, index_expr):
    """Add a new leading dimension of extent ``size`` to a buffer, indexing it
    with ``index_expr`` at every access (typically an enclosing loop iterator)."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    sym = node.name
    size = to_expr(proc, size, cur._path)
    index_expr = to_expr(proc, index_expr, cur._path)

    env = proc_fact_env(proc, cur._path)
    pos = prove(N.BinOp(">", size, const(0), bool_t), env)
    require(pos is not False, "expand_dim: the new dimension size must be positive")

    def idx_fn(idx: List[N.Expr]) -> List[N.Expr]:
        return [index_expr] + idx

    def retype(t):
        if isinstance(t, TensorType):
            return TensorType(t.base, [size] + t.shape, False)
        return TensorType(t, [size], False)

    # the accesses of a scalar allocation have empty index lists
    return _rewrite_proc_accesses(
        proc, sym, idx_fn, retype, whole=not isinstance(node.typ, TensorType)
    )


@scheduling_primitive
def rearrange_dim(proc, alloc, permutation: Sequence[int]):
    """Permute the dimensions of a buffer (``permutation[i]`` gives the old
    dimension stored at new position ``i``)."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    require(isinstance(node.typ, TensorType), "rearrange_dim: expected a tensor allocation")
    ndim = len(node.typ.shape)
    require(sorted(permutation) == list(range(ndim)), "rearrange_dim: invalid permutation")
    sym = node.name

    def idx_fn(idx: List[N.Expr]) -> List[N.Expr]:
        require(len(idx) == ndim, "rearrange_dim: access rank mismatch")
        return [idx[p] for p in permutation]

    def retype(t):
        return TensorType(t.base, [t.shape[p] for p in permutation], t.is_window)

    return _rewrite_proc_accesses(proc, sym, idx_fn, retype)


@scheduling_primitive
def divide_dim(proc, alloc, dim: int, quotient: int):
    """Split dimension ``dim`` of a buffer into ``[dim/quotient, quotient]``."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    require(isinstance(node.typ, TensorType), "divide_dim: expected a tensor allocation")
    require(0 <= dim < len(node.typ.shape), "divide_dim: dimension out of range")
    c = quotient
    env = proc_fact_env(proc, cur._path)
    dsz = node.typ.shape[dim]
    dsz_c = const_value(dsz)
    ok = (dsz_c is not None and dsz_c % c == 0) or prove_divisible(dsz, c, env)
    require(ok, "divide_dim: the dimension size must be divisible by the quotient")
    sym = node.name

    def idx_fn(idx: List[N.Expr]) -> List[N.Expr]:
        i = idx[dim]
        outer = simplify_expr(N.BinOp("/", i, const(c), index_t), env)
        inner = simplify_expr(N.BinOp("%", i, const(c), index_t), env)
        return idx[:dim] + [outer, inner] + idx[dim + 1 :]

    def retype(t):
        outer_sz = simplify_expr(N.BinOp("/", t.shape[dim], const(c), index_t), env)
        return TensorType(t.base, t.shape[:dim] + [outer_sz, const(c)] + t.shape[dim + 1 :], t.is_window)

    return _rewrite_proc_accesses(proc, sym, idx_fn, retype)


@scheduling_primitive
def mult_dim(proc, alloc, dim: int, dim2: int):
    """Fuse two dimensions of a buffer into one (``a[i, _, j] -> a[c*i + j, _]``
    where ``c`` is the constant extent of ``dim2``)."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    require(isinstance(node.typ, TensorType), "mult_dim: expected a tensor allocation")
    shape = node.typ.shape
    require(dim != dim2, "mult_dim: the two dimensions must differ")
    c = const_value(shape[dim2])
    require(c is not None, "mult_dim: the absorbed dimension must have constant extent")
    sym = node.name
    env = proc_fact_env(proc, cur._path)

    def idx_fn(idx: List[N.Expr]) -> List[N.Expr]:
        fused = simplify_expr(
            N.BinOp("+", N.BinOp("*", const(c), idx[dim], index_t), idx[dim2], index_t),
            env,
        )
        out = list(idx)
        out[dim] = fused
        del out[dim2]
        return out

    def retype(t):
        shp = list(t.shape)
        shp[dim] = simplify_expr(N.BinOp("*", const(c), shp[dim], index_t), env)
        del shp[dim2]
        return TensorType(t.base, shp, t.is_window)

    return _rewrite_proc_accesses(proc, sym, idx_fn, retype)


@scheduling_primitive
def unroll_buffer(proc, alloc, dim: int = 0):
    """Replace a buffer whose ``dim`` has constant extent (and is always
    accessed with constant indices) by one scalar buffer per index."""
    cur = _alloc_cursor(proc, alloc)
    node = cur._node()
    require(isinstance(node.typ, TensorType), "unroll_buffer: expected a tensor allocation")
    c = const_value(node.typ.shape[dim])
    require(c is not None, "unroll_buffer: the unrolled dimension must have constant extent")
    sym = node.name

    # check all accesses have constant indices along dim
    for n, _ in walk(proc._root):
        if isinstance(n, (N.Read, N.Assign, N.Reduce)) and getattr(n, "name", None) is sym and n.idx:
            require(
                const_value(n.idx[dim]) is not None,
                "unroll_buffer: accesses must use constant indices along the unrolled dimension",
            )
        if isinstance(n, N.WindowExpr) and n.name is sym:
            raise SchedulingError("unroll_buffer: the buffer cannot be windowed")

    new_syms = [Sym(f"{sym.name}_{k}") for k in range(c)]
    remaining_shape = [s for i, s in enumerate(node.typ.shape) if i != dim]
    new_typ = (
        TensorType(node.typ.base, remaining_shape, False) if remaining_shape else node.typ.base
    )
    new_allocs = [N.Alloc(s, new_typ, node.mem) for s in new_syms]

    def scalarize(a):
        return {
            "name": new_syms[const_value(a.idx[dim])],
            "idx": [x for i, x in enumerate(a.idx) if i != dim],
        }

    owner, attr, idx = stmt_coords(cur)
    session = EditSession(proc)
    session.set_root(with_fields(proc._root, body=_map_accesses(proc._root.body, sym, scalarize)))
    session.replace((owner, attr, idx, idx + 1), new_allocs)
    return session.finish()


# ---------------------------------------------------------------------------
# bind_expr and stage_mem
# ---------------------------------------------------------------------------


@scheduling_primitive
def bind_expr(proc, exprs, new_name: str, *, cse: bool = False):
    """Bind an expression (or several structurally identical occurrences) to a
    new scalar temporary allocated and assigned just before the statement
    containing the first occurrence."""
    if not isinstance(exprs, (list, tuple)):
        exprs = [exprs]
    curs = [to_expr_cursor(proc, e) for e in exprs]
    nodes = [c._node() for c in curs]
    first = nodes[0]
    for n in nodes[1:]:
        require(structurally_equal(n, first), "bind_expr: occurrences are not identical expressions")
    typ = getattr(first, "typ", None)
    base = typ.basetype() if isinstance(typ, TensorType) else typ
    if base is None or not getattr(base, "is_numeric", False):
        from ..ir.types import f32

        base = f32

    stmt = curs[0].parent()
    owner, attr, idx = stmt_coords(stmt)
    sym = Sym(new_name)
    alloc = N.Alloc(sym, base, DRAM)
    assign = N.Assign(sym, [], first, base)

    # every structurally identical occurrence is bound: in the statements from
    # the first occurrence to the end of its block with ``cse``, else in the
    # containing statement only
    def repl(e):
        return N.Read(sym, [], base) if structurally_equal(e, first) else e

    owner_node = get_node(proc._root, owner)
    siblings = getattr(owner_node, attr)
    n_old = len(siblings) - idx if cse else 1
    rewritten = [map_exprs(s, repl) for s in siblings[idx : idx + n_old]]
    new_stmts = [alloc, assign] + rewritten
    session = EditSession(proc)
    session.replace((owner, attr, idx, idx + n_old), new_stmts, lambda off, rest: (off + 2, rest))
    return session.finish()


def _parse_window(proc, window, at_path) -> N.WindowExpr:
    e = to_expr(proc, window, at_path)
    if isinstance(e, N.Read):
        # point accesses (or a bare scalar name): a degenerate window
        e = N.WindowExpr(e.name, [N.Point(i) for i in e.idx], e.typ)
    require(isinstance(e, N.WindowExpr), "stage_mem: expected a window expression like 'A[0:n, j]'")
    return e


@scheduling_primitive
def stage_mem(proc, block, window, new_name: str, *, accum: bool = False, init_zero: bool = False):
    """Stage a window of a buffer through a new temporary around ``block``.

    The temporary is loaded from the buffer before the block (unless
    ``init_zero``), accesses inside the block are redirected to it, and it is
    written back after the block (when the block writes the buffer, or always
    when ``accum``)."""
    block = to_block_cursor(proc, block)
    w = _parse_window(proc, window, block[0]._path)
    buf = w.name
    env = proc_fact_env(proc, block._owner_path)

    # window geometry
    dims = []  # (lo_expr, size_expr) for interval dims; (pt, None) for points
    for d in w.idx:
        if isinstance(d, N.Interval):
            size = simplify_expr(N.BinOp("-", d.hi, d.lo, index_t), env)
            dims.append((d.lo, size))
        else:
            dims.append((d.pt, None))
    tensor_dims = [(lo, sz) for lo, sz in dims if sz is not None]

    # find the element type of the staged buffer
    base = None
    for a in proc._root.args:
        if a.name is buf:
            base = a.typ.base if isinstance(a.typ, TensorType) else a.typ
    if base is None:
        for n, _ in walk(proc._root):
            if isinstance(n, N.Alloc) and n.name is buf:
                base = n.typ.base if isinstance(n.typ, TensorType) else n.typ
    require(base is not None, f"stage_mem: could not find buffer {buf.name!r}")

    stmts = block._stmts()
    reads = any(a.buf is buf and a.kind in ("read", "reduce") for a in accesses_of(stmts))
    writes = any(a.buf is buf and a.is_write() for a in accesses_of(stmts))

    sym = Sym(new_name)
    new_typ = TensorType(base, [sz for _, sz in tensor_dims], False) if tensor_dims else base
    alloc = N.Alloc(sym, new_typ, DRAM)

    # loops to copy between buf and the staging buffer
    def copy_loops(store: bool) -> N.Stmt:
        iters = [Sym(f"i{k}") for k in range(len(tensor_dims))]
        src_idx = []
        tmp_idx = [N.Read(it, [], index_t) for it in iters]
        k = 0
        for lo, sz in dims:
            if sz is None:
                src_idx.append(lo)
            else:
                src_idx.append(N.BinOp("+", lo, N.Read(iters[k], [], index_t), index_t))
                k += 1
        if store:
            if accum:
                inner: N.Stmt = N.Reduce(buf, src_idx, N.Read(sym, tmp_idx, base), base)
            else:
                inner = N.Assign(buf, src_idx, N.Read(sym, tmp_idx, base), base)
        elif init_zero or accum:
            inner = N.Assign(sym, tmp_idx, N.Const(0.0, base), base)
        else:
            inner = N.Assign(sym, tmp_idx, N.Read(buf, src_idx, base), base)
        for it, (_, sz) in zip(reversed(iters), reversed(tensor_dims)):
            inner = N.For(it, const(0), sz, [inner], "seq")
        return inner

    # rewrite accesses inside the block: buf[e0, e1, ...] -> tmp[e_k - lo_k]
    def redirect(a):
        idx = [
            simplify_expr(N.BinOp("-", e, lo, index_t), env)
            for e, (lo, sz) in zip(a.idx, dims)
            if sz is not None
        ]
        return {"name": sym, "idx": idx}

    new_block = _map_accesses(
        stmts, buf, redirect, whole=True,
        windowed="stage_mem: the staged buffer is windowed inside the block",
    )

    new_stmts: List[N.Stmt] = [alloc]
    lead = 1
    if reads or accum or init_zero or not writes:
        load_stmt = copy_loops(store=False)
        new_stmts.append(load_stmt)
        lead += 1
    if accum:
        # accumulate mode: redirected writes inside the block must be reductions
        # into the zero-initialised staging buffer; reads of the old value are
        # not allowed (they would observe 0 instead of the original data)
        require(
            not any(a.buf is buf and a.kind == "read" for a in accesses_of(stmts)),
            "stage_mem: accum staging requires the block to only reduce into the buffer",
        )
    new_stmts.extend(new_block)
    if writes or accum:
        new_stmts.append(copy_loops(store=True))

    owner, attr, lo_i, hi_i = block_coords(block)
    session = EditSession(proc)
    session.replace((owner, attr, lo_i, hi_i), new_stmts, lambda off, rest: (off + lead, rest))
    return session.finish()


@scheduling_primitive
def stage_reduction(proc, loop, reduce_stmt, new_name: str, lanes: int):
    """Stage a scalar ``+=`` reduction carried by ``loop`` into ``lanes``
    partial sums (the classic trick that exposes SIMD parallelism in
    reductions such as ``dot`` and ``asum``; Section 6.2.1).

    ``for i: ... acc += e ...`` becomes::

        accv: T[lanes]
        for l: accv[l] = 0.0
        for i: ... accv[i % lanes] += e ...
        for l: acc += accv[l]

    Safety: the reduction target's indices must not depend on the loop
    iterator, the target cell must not be accessed elsewhere in the loop (other
    cells of its buffer may be, when provably disjoint from it), and the
    rewrite relies on associativity/commutativity of ``+`` (the same licence
    every BLAS-style reduction schedule takes).
    """
    require(lanes > 0, "stage_reduction: lanes must be positive")
    loop = to_loop_cursor(proc, loop)
    red = to_stmt_cursor(proc, reduce_stmt)
    red_node = red._node()
    require(isinstance(red_node, N.Reduce), "stage_reduction: expected a reduction statement")
    loop_node = loop._node()
    # the reduction must be inside the loop
    require(
        tuple(red._path[: len(loop._path)]) == tuple(loop._path),
        "stage_reduction: the reduction is not inside the given loop",
    )
    it = loop_node.iter
    for i_e in red_node.idx:
        require(
            it not in used_syms_expr(i_e),
            "stage_reduction: the reduction target is indexed by the loop iterator",
        )
    acc = red_node.name
    env = proc_fact_env(proc, loop._path).with_loop(it, loop_node.lo, loop_node.hi)
    # the accumulator cell must not be accessed elsewhere in the loop body:
    # only the reduction itself may touch it (other cells of the buffer may be
    # used freely, e.g. the other rows of an unroll-and-jammed reduction)
    cell = Access(acc, "reduce", list(red_node.idx))
    touching = [
        a for a in accesses_of(loop_node.body) if a.buf is acc and not accesses_disjoint(a, cell, env)
    ]
    require(
        len(touching) == 1,
        "stage_reduction: the accumulator is accessed more than once in the loop",
    )

    base = red_node.typ if isinstance(red_node.typ, ScalarType) else None
    if base is None or not getattr(base, "is_numeric", False):
        from ..ir.types import f32

        base = f32

    sym = Sym(new_name)

    # init / final loops
    l1, l2 = Sym("l"), Sym("l")
    init_loop = N.For(
        l1, const(0), const(lanes), [N.Assign(sym, [N.Read(l1, [], index_t)], N.Const(0.0, base), base)], "seq"
    )
    final_loop = N.For(
        l2,
        const(0),
        const(lanes),
        [N.Reduce(acc, red_node.idx, N.Read(sym, [N.Read(l2, [], index_t)], base), base)],
        "seq",
    )

    lane_idx = N.BinOp("%", N.Read(it, [], index_t), const(lanes), index_t)
    new_red = N.Reduce(sym, [lane_idx], red_node.rhs, base)

    # rebuild the loop with the reduction redirected to the staging buffer
    rel_path = red._path[len(loop._path):]
    new_loop_node = set_node(loop_node, rel_path, new_red)

    alloc = N.Alloc(sym, TensorType(base, [const(lanes)], False), DRAM)
    new_stmts = [alloc, init_loop, new_loop_node, final_loop]

    owner, attr, idx = stmt_coords(loop)
    session = EditSession(proc)
    session.replace((owner, attr, idx, idx + 1), new_stmts, lambda off, rest: (2, rest))
    return session.finish()
