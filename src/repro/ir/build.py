"""Generic IR utilities: traversal, functional update, substitution, renaming.

These helpers are the workhorses behind scheduling primitives.  The IR is an
immutable tree (see the contract in :mod:`repro.ir.nodes`): every "mutation"
builds new nodes along the path it touches and shares every other subtree
with the old tree, which is what makes provenance, forwarding and the memos
kept on nodes cheap.  The rewriters here return the *input object* when
nothing under it changed; their callbacks return new nodes
(:func:`with_fields`) and never assign a field.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import nodes as N
from .syms import Sym
from .types import ScalarType, TensorType

__all__ = [
    "Path",
    "get_node",
    "with_fields",
    "set_node",
    "replace_stmts",
    "map_exprs",
    "map_stmts",
    "walk",
    "subst_expr",
    "subst_stmts",
    "substitute_reads",
    "rename_sym_in_stmts",
    "alpha_rename_stmts",
    "structurally_equal",
    "same_tree",
    "collect_syms_read",
    "collect_syms_written",
    "collect_allocs",
    "allocs_by_sym",
    "declaration",
    "used_syms_expr",
    "stmt_list_field_paths",
]

# A path step is (field_name, index or None); a Path is a tuple of steps.
Step = Tuple[str, Optional[int]]
Path = Tuple[Step, ...]


# ---------------------------------------------------------------------------
# Path-based access and functional update
# ---------------------------------------------------------------------------


def get_node(root: N.Node, path: Path) -> N.Node:
    """Return the node addressed by ``path`` starting from ``root``."""
    node = root
    for attr, idx in path:
        child = getattr(node, attr)
        if idx is None:
            node = child
        else:
            node = child[idx]
    return node


def with_fields(node: N.Node, **changes) -> N.Node:
    """A new node equal to ``node`` except for ``changes`` — the one way to
    "modify" a node.  Unchanged field values (child lists included) are
    shared with ``node``, and the result carries none of its memos."""
    kwargs = {f: getattr(node, f) for f in N.FIELDS[type(node)]}
    kwargs.update(changes)
    return type(node)(**kwargs)


def set_node(root: N.Node, path: Path, new_node) -> N.Node:
    """Functionally replace the node at ``path`` with ``new_node``.

    Returns a new root; every node on the path is rebuilt, everything else is
    shared with the input tree.
    """
    if not path:
        return new_node
    (attr, idx), rest = path[0], path[1:]
    child = getattr(root, attr)
    if idx is None:
        return with_fields(root, **{attr: set_node(child, rest, new_node)})
    child = list(child)
    child[idx] = set_node(child[idx], rest, new_node)
    return with_fields(root, **{attr: child})


def replace_stmts(
    root: N.Node,
    block_path: Path,
    attr: str,
    lo: int,
    n_old: int,
    new_stmts: Sequence[N.Stmt],
) -> N.Node:
    """Replace ``n_old`` statements starting at index ``lo`` of the statement
    list ``attr`` of the node at ``block_path`` with ``new_stmts``."""
    parent = get_node(root, block_path)
    stmts = list(getattr(parent, attr))
    stmts[lo : lo + n_old] = list(new_stmts)
    return set_node(root, block_path, with_fields(parent, **{attr: stmts}))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def walk(node: N.Node, path: Path = ()) -> Iterator[Tuple[N.Node, Path]]:
    """Yield every node in the subtree (pre-order) together with its path."""
    stack = [(node, path)]
    while stack:
        n, p = stack.pop()
        yield n, p
        # children are pushed last-first so that they pop in program order
        for attr, is_list in reversed(N.child_fields(n)):
            child = getattr(n, attr)
            if is_list:
                for i in range(len(child) - 1, -1, -1):
                    stack.append((child[i], p + ((attr, i),)))
            elif child is not None:
                stack.append((child, p + ((attr, None),)))


def stmt_list_field_paths(node: N.Node, path: Path = ()) -> Iterator[Tuple[Path, str, List[N.Stmt]]]:
    """Yield every statement-list in the subtree as ``(owner_path, attr,
    stmts)``, owners in pre-order.  Only statements that own lists are
    visited; expressions never are."""
    stack = [(node, path)]
    while stack:
        n, p = stack.pop()
        attrs = N.LIST_FIELDS.get(type(n), ())
        for attr in attrs:
            yield p, attr, getattr(n, attr)
        for attr in reversed(attrs):
            stmts = getattr(n, attr)
            for i in range(len(stmts) - 1, -1, -1):
                if type(stmts[i]) in N.LIST_FIELDS:
                    stack.append((stmts[i], p + ((attr, i),)))


# ---------------------------------------------------------------------------
# Mapping / substitution
# ---------------------------------------------------------------------------


def _map_list(items: list, fn: Callable) -> list:
    """``[fn(x) for x in items]``, or ``items`` itself when every ``fn(x) is x``."""
    out = None
    for i, x in enumerate(items):
        y = fn(x)
        if out is not None:
            out.append(y)
        elif y is not x:
            out = items[:i]
            out.append(y)
    return items if out is None else out


def map_exprs(node, fn: Callable[[N.Expr], N.Expr]):
    """Apply ``fn`` bottom-up to every expression under ``node`` (a node or a
    list of nodes; the shapes of allocations included).

    ``fn`` receives each expression after its children were rewritten and
    returns it or a replacement.  Only nodes with a changed descendant are
    rebuilt: when ``fn`` returned every expression unchanged the result *is*
    ``node``."""

    def rec(n):  # a node or a list of nodes: every child field holds one
        if isinstance(n, list):
            return _map_list(n, rec)
        changes = {}
        for attr, _is_list in N.child_fields(n):
            old = getattr(n, attr)
            new = rec(old)
            if new is not old:
                changes[attr] = new
        if isinstance(n, N.Alloc) and isinstance(n.typ, TensorType):
            shape = _map_list(n.typ.shape, rec)
            if shape is not n.typ.shape:
                changes["typ"] = TensorType(n.typ.base, shape, n.typ.is_window)
        if changes:
            n = with_fields(n, **changes)
        return fn(n) if isinstance(n, N.Expr) else n

    return rec(node)


def map_stmts(stmts: Sequence[N.Stmt], fn: Callable[[N.Stmt], N.Stmt]) -> List[N.Stmt]:
    """Apply ``fn`` to every statement of a block, innermost first.

    ``fn`` receives each statement after its nested blocks were rewritten and
    returns its replacement (or the statement itself).  Returns ``stmts``
    itself when nothing changed."""
    out = None
    for i, s in enumerate(stmts):
        changes = {}
        for attr in N.LIST_FIELDS.get(type(s), ()):
            old = getattr(s, attr)
            new = map_stmts(old, fn)
            if new is not old:
                changes[attr] = new
        s2 = with_fields(s, **changes) if changes else s
        res = fn(s2)
        if out is None:
            if res is s:
                continue
            out = list(stmts[:i])
        out.append(res)
    return stmts if out is None else out


def substitute_reads(node, env: Dict[Sym, N.Expr]):
    """Substitute scalar reads of the symbols in ``env`` with replacement
    expressions (the classic ``s[i ↦ e]`` operation used by primitives)."""

    def repl(e: N.Expr) -> N.Expr:
        if isinstance(e, N.Read) and not e.idx and e.name in env:
            return env[e.name]
        return e

    return map_exprs(node, repl)


def subst_expr(expr: N.Expr, env: Dict[Sym, N.Expr]) -> N.Expr:
    return substitute_reads(expr, env)


def subst_stmts(stmts: Sequence[N.Stmt], env: Dict[Sym, N.Expr]) -> List[N.Stmt]:
    return [substitute_reads(s, env) for s in stmts]


def _rename_syms(
    stmts: Sequence[N.Stmt], renames: Dict[Sym, Sym], subst: Optional[Dict[Sym, N.Expr]] = None
) -> List[N.Stmt]:
    """Rename every occurrence (reads, writes, windows, allocs, iterators) of
    the symbols in ``renames``, and replace the scalar reads of the symbols in
    ``subst`` with their expressions, in one pass."""
    subst = subst or {}

    def fix_expr(e: N.Expr) -> N.Expr:
        if isinstance(e, N.Read) and not e.idx and e.name in subst:
            return subst[e.name]
        if isinstance(e, (N.Read, N.WindowExpr, N.StrideExpr)) and e.name in renames:
            return with_fields(e, name=renames[e.name])
        return e

    def fix_stmt(s: N.Stmt):
        if isinstance(s, (N.Assign, N.Reduce, N.Alloc, N.WindowStmt)) and s.name in renames:
            return with_fields(s, name=renames[s.name])
        if isinstance(s, N.For) and s.iter in renames:
            return with_fields(s, iter=renames[s.iter])
        return s

    return map_stmts(map_exprs(list(stmts), fix_expr), fix_stmt)


def rename_sym_in_stmts(stmts: Sequence[N.Stmt], old: Sym, new: Sym) -> List[N.Stmt]:
    """Rename every occurrence (reads, writes, windows, allocs) of ``old``."""
    return _rename_syms(stmts, {old: new})


def alpha_rename_stmts(stmts: Sequence[N.Stmt], subst: Optional[Dict[Sym, N.Expr]] = None) -> List[N.Stmt]:
    """Rebuild a statement block with fresh identities for every symbol
    *bound inside* the block (loop iterators, allocations, windows).  Free
    symbols are left untouched, and so is every subtree that mentions no
    bound symbol.  Used by ``unroll_loop``, ``inline`` and friends.

    ``subst`` maps free symbols to the expressions their scalar reads become
    in the same pass (``unroll_loop``'s ``s[i ↦ v]`` for each copy)."""
    renames: Dict[Sym, Sym] = {}

    def collect(ss):
        for s in ss:
            if isinstance(s, N.For):
                renames.setdefault(s.iter, s.iter.copy())
                collect(s.body)
            elif isinstance(s, N.If):
                collect(s.body)
                collect(s.orelse)
            elif isinstance(s, (N.Alloc, N.WindowStmt)):
                renames.setdefault(s.name, s.name.copy())

    collect(stmts)
    return _rename_syms(stmts, renames, subst) if renames or subst else list(stmts)


# ---------------------------------------------------------------------------
# Structural equality & symbol collection
# ---------------------------------------------------------------------------


# A leaf's type repeats its symbol's declaration (every other expression type
# is derived, see repro.ir.nodes): types take part in structural equality only
# on allocations, where they are the declaration.
_STRUCT_FIELDS = {
    cls: tuple(f for f in names if f != "typ" or cls is N.Alloc) for cls, names in N.FIELDS.items()
}


def structurally_equal(a, b, *, match_sym_names: bool = False) -> bool:
    """Structural equality of IR subtrees.

    Symbols compare by identity unless ``match_sym_names`` is set, in which
    case they compare by name (useful for comparing procedures produced by
    independent scheduling runs).

    Identical objects are equal by definition, which keeps a comparison from
    re-walking the subtrees the functional-update helpers share between
    versions.
    """
    if a is b:
        return True
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, Sym) and isinstance(b, Sym):
        return (a.name == b.name) if match_sym_names else (a is b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            structurally_equal(x, y, match_sym_names=match_sym_names) for x, y in zip(a, b)
        )
    if isinstance(a, (ScalarType,)) or isinstance(b, (ScalarType,)):
        return a == b
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        return (
            a.base == b.base
            and a.is_window == b.is_window
            and structurally_equal(a.shape, b.shape, match_sym_names=match_sym_names)
        )
    if not isinstance(a, N.Node) or not isinstance(b, N.Node):
        return a == b
    if type(a) is not type(b):
        return False
    for f in _STRUCT_FIELDS[type(a)]:
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, _NESTED) or isinstance(vb, _NESTED):
            if not structurally_equal(va, vb, match_sym_names=match_sym_names):
                return False
        elif va != vb:
            return False
    return True


#: field values structurally_equal compares by recursion, not by ``==``
_NESTED = (Sym, N.Node, list, ScalarType, TensorType)


def same_tree(a, b) -> bool:
    """Are two subtrees interchangeable in every field, result types included
    (symbols by identity)?  Stricter than :func:`structurally_equal`; a
    rewriter that rebuilt ``b`` from ``a`` uses it to hand back ``a`` — and
    with it ``a``'s sharing and memos — when the rewrite changed nothing."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_tree, a, b))
    if isinstance(a, TensorType):
        return a.base == b.base and a.is_window == b.is_window and same_tree(a.shape, b.shape)
    if isinstance(a, N.Node):
        return all(same_tree(getattr(a, f), getattr(b, f)) for f in N.FIELDS[type(a)])
    return a == b


def used_syms_expr(expr: N.Expr) -> set:
    """All symbols read by an expression (including window / stride names)."""
    out = set()
    for n, _ in walk(expr):
        if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
            out.add(n.name)
    return out


def collect_syms_read(node) -> set:
    out = set()
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
                out.add(n.name)
            if isinstance(n, (N.Assign, N.Reduce)):
                for e in n.idx:
                    out |= used_syms_expr(e)
            if isinstance(n, N.Reduce):
                out.add(n.name)
    return out


def collect_syms_written(node) -> set:
    out = set()
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, (N.Assign, N.Reduce)):
                out.add(n.name)
    return out


def collect_allocs(node) -> List[N.Alloc]:
    out = []
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, N.Alloc):
                out.append(n)
    return out


def allocs_by_sym(root: N.ProcDef) -> dict:
    """``Sym -> Alloc`` for every allocation of the procedure (memoised on the
    immutable root; statement lists only, no expression is visited)."""
    return N.memo(
        root,
        "_allocs_by_sym",
        lambda r: {
            s.name: s
            for _, _, stmts in stmt_list_field_paths(r)
            for s in stmts
            if isinstance(s, N.Alloc)
        },
    )


def declaration(root: N.ProcDef, sym: Sym):
    """The argument, allocation or window statement of ``root`` that declares
    ``sym`` (None for a loop iterator).  A write's type is its declaration's."""
    return (
        next((a for a in root.args if a.name is sym), None)
        or allocs_by_sym(root).get(sym)
        or next((s for _, _, ss in stmt_list_field_paths(root) for s in ss
                 if isinstance(s, N.WindowStmt) and s.name is sym), None)
    )
