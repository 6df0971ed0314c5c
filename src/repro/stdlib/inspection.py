"""The inspection library ("ins-lib", Section 4).

These are *user-level* analyses built entirely from cursor navigation and
inspection — no compiler support.  The flagship example is bounds inference
(:func:`infer_bounds`), which Halide provides as a built-in but which Exo 2
lets users implement externally and reuse (:func:`repro.stdlib.auto_stage_mem`
sizes its staging window with it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.linear import FactEnv, LinearForm, const_value, linear_to_expr, linearize, simplify_expr
from ..cursors.cursor import BlockCursor, ForCursor, IfCursor, ReadCursor
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import used_syms_expr, walk
from ..ir.types import index_t

__all__ = [
    "get_inner_loop",
    "get_enclosing_loop",
    "loop_nest",
    "is_loop",
    "loop_bounds_const",
    "get_reused_vector",
    "infer_bounds",
    "Bounds",
]


def is_loop(cursor) -> bool:
    return isinstance(cursor, ForCursor)


def loop_bounds_const(loop: ForCursor) -> Tuple[Optional[int], Optional[int]]:
    """The constant (lo, hi) of a loop, where known."""
    return const_value(loop.lo()._node()), const_value(loop.hi()._node())


def get_inner_loop(p, loop) -> ForCursor:
    """Descend through a perfectly nested loop chain to the innermost loop."""
    loop = p.forward(loop) if loop._proc is not p else loop
    cur = loop
    while True:
        body = cur.body()
        inner = None
        if len(body) == 1 and isinstance(body[0], ForCursor):
            inner = body[0]
        elif len(body) == 1 and isinstance(body[0], IfCursor) and len(body[0].body()) == 1:
            grand = body[0].body()[0]
            if isinstance(grand, ForCursor):
                inner = grand
        if inner is None:
            return cur
        cur = inner


def get_enclosing_loop(p, cursor) -> ForCursor:
    """The closest enclosing loop of a statement cursor."""
    cur = p.forward(cursor) if cursor._proc is not p else cursor
    while True:
        cur = cur.parent()
        if isinstance(cur, ForCursor):
            return cur


def loop_nest(p, outer) -> List[ForCursor]:
    """The perfectly nested loops starting at ``outer`` (outermost first)."""
    out = [p.forward(outer) if outer._proc is not p else outer]
    while True:
        body = out[-1].body()
        if len(body) == 1 and isinstance(body[0], ForCursor):
            out.append(body[0])
        else:
            return out


def get_reused_vector(p, inner_loop) -> ReadCursor:
    """Find the buffer read inside ``inner_loop`` whose index does not depend
    on the *enclosing* loop's iterator — i.e. the vector that is re-read on
    every outer iteration and is worth keeping in registers (Section 6.2.2,
    skinny-matrix schedule)."""
    inner_loop = p.forward(inner_loop) if inner_loop._proc is not p else inner_loop
    outer = get_enclosing_loop(p, inner_loop)
    outer_iter = outer.iter_sym()
    inner_iter = inner_loop.iter_sym()
    node = inner_loop._node()
    for n, _ in walk(node):
        if isinstance(n, N.Read) and n.idx:
            syms = set()
            for i in n.idx:
                syms |= used_syms_expr(i)
            if outer_iter not in syms and inner_iter in syms:
                # find its cursor
                for c in inner_loop.find(f"{n.name.name}[_]", many=True):
                    return c
    raise SchedulingError("could not find a reused vector in the inner loop")


# ---------------------------------------------------------------------------
# Bounds inference (Section 4)
# ---------------------------------------------------------------------------


@dataclass
class Bounds:
    """Per-dimension inclusive-exclusive bounds of the accesses to a buffer."""

    buffer: str
    lo: List[N.Expr]
    hi: List[N.Expr]
    reads: int = 0
    writes: int = 0

    def extent(self, env: Optional[FactEnv] = None) -> List[N.Expr]:
        env = env or FactEnv()
        return [
            simplify_expr(N.BinOp("-", h, l, index_t), env)
            for l, h in zip(self.lo, self.hi)
        ]


def infer_bounds(p, scope, buf_name: str) -> Bounds:
    """Infer, for each dimension of ``buf_name``, the range of indices accessed
    within ``scope`` (a loop/if/block cursor), as expressions over the
    variables that are free outside the scope.

    This is the user-level bounds-inference analysis of Section 4: it combines
    primitive cursor inspections (loop bounds, index expressions) with ordinary
    Python bookkeeping of free/bound variables, and underpins
    ``auto_stage_mem``.
    """
    scope = p.forward(scope) if getattr(scope, "_proc", p) is not p else scope
    if isinstance(scope, BlockCursor):
        nodes = scope._stmts()
        base_path = scope._owner_path
    else:
        nodes = [scope._node()]
        base_path = scope._path

    # collect iterator ranges bound *inside* the scope
    bound_ranges: Dict[object, Tuple[N.Expr, N.Expr]] = {}

    def collect_loops(stmts):
        for s in stmts:
            for n, _ in walk(s):
                if isinstance(n, N.For):
                    bound_ranges[n.iter] = (n.lo, n.hi)

    collect_loops(nodes)

    env = FactEnv.from_proc(p._root)

    lo_forms: List[Optional[LinearForm]] = []
    hi_forms: List[Optional[LinearForm]] = []
    reads = writes = 0

    def union_dim(d: int, lo_f: LinearForm, hi_f: LinearForm):
        nonlocal lo_forms, hi_forms
        while len(lo_forms) <= d:
            lo_forms.append(None)
            hi_forms.append(None)
        if lo_forms[d] is None:
            lo_forms[d], hi_forms[d] = lo_f, hi_f
            return
        lo_forms[d] = _merge(lo_forms[d], lo_f, pick_min=True)
        hi_forms[d] = _merge(hi_forms[d], hi_f, pick_min=False)

    def _merge(a: LinearForm, b: LinearForm, pick_min: bool) -> LinearForm:
        lo, hi = env.interval(a - b)
        a_le_b, a_ge_b = hi is not None and hi <= 0, lo is not None and lo >= 0
        if a_le_b or a_ge_b:
            return a if (a_le_b if pick_min else a_ge_b) else b
        # keeping either bound would leave the other access outside the range
        raise SchedulingError(f"infer_bounds: cannot order two bounds of {buf_name!r}")

    def bound_index(e: N.Expr) -> Tuple[LinearForm, LinearForm]:
        """Min/max of an index expression over the scope-bound iterators."""
        lf = linearize(e)
        lo_f = LinearForm()
        hi_f = LinearForm()
        for key, coeff in lf.terms.items():
            bound_syms = [a for a in key if a in bound_ranges]
            if not bound_syms:
                lo_f = lo_f + LinearForm({key: coeff})
                hi_f = hi_f + LinearForm({key: coeff})
                continue
            # affine in a single bound iterator (the common case)
            it = bound_syms[0]
            lo_e, hi_e = bound_ranges[it]
            rest_key = tuple(a for a in key if a is not it)
            lo_term = LinearForm({rest_key: coeff}) * linearize(lo_e)
            hi_term = LinearForm({rest_key: coeff}) * (linearize(hi_e) - LinearForm.constant(1))
            if coeff >= 0:
                lo_f = lo_f + lo_term
                hi_f = hi_f + hi_term
            else:
                lo_f = lo_f + hi_term
                hi_f = hi_f + lo_term
        return lo_f, hi_f

    for s in nodes:
        for n, _ in walk(s):
            idxs = None
            if isinstance(n, (N.Read,)) and n.name.name == buf_name and n.idx:
                idxs = n.idx
                reads += 1
            elif isinstance(n, (N.Assign, N.Reduce)) and n.name.name == buf_name:
                idxs = n.idx
                writes += 1
            if idxs:
                for d, e in enumerate(idxs):
                    lo_f, hi_f = bound_index(e)
                    union_dim(d, lo_f, hi_f)

    if not lo_forms:
        raise SchedulingError(f"infer_bounds: {buf_name!r} is not accessed within the scope")

    lo_exprs = [simplify_expr(linear_to_expr(f), env) for f in lo_forms]
    hi_exprs = [
        simplify_expr(N.BinOp("+", linear_to_expr(f), N.Const(1, index_t), index_t), env) for f in hi_forms
    ]
    return Bounds(buf_name, lo_exprs, hi_exprs, reads, writes)
