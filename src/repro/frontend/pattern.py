"""Structural pattern matching over object code.

Patterns are written in the object-language surface syntax with ``_`` as a
wildcard, e.g.::

    'for i in _: _'          # the loop with iterator name `i`
    'for _ in _: _'          # any loop
    'y[_] += _'              # any reduction into y
    'a2 = A[_]'              # an assignment of a read of A to a2
    'res: _'                 # the allocation of res
    'do_ld_i8(_)'            # a call to do_ld_i8
    'x[_] * y[_]'            # an expression pattern

A trailing ``#k`` selects the k-th match (0-based).  Multi-statement patterns
(newline- or ``;``-separated) match contiguous statement sequences and produce
block matches.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..errors import ParseError
from ..ir import nodes as N
from ..ir.build import Path, get_node, stmt_list_field_paths, walk
from .parser import parse_python

__all__ = ["Match", "parse_pattern", "find_pattern_matches"]


@dataclass
class Match:
    """A single pattern match.

    ``kind`` is ``"block"`` for statement patterns (``owner_path``/``attr``
    locate the statement list, ``start``/``length`` the matched range) and
    ``"expr"`` for expression patterns (``path`` locates the expression).
    """

    kind: str
    owner_path: Optional[Path] = None
    attr: Optional[str] = None
    start: int = 0
    length: int = 1
    path: Optional[Path] = None


_WILD = "_"


def _strip_occurrence(pattern: str) -> Tuple[str, Optional[int]]:
    if "#" in pattern:
        body, _, occ = pattern.rpartition("#")
        occ = occ.strip()
        if occ.isdigit():
            return body.strip(), int(occ)
    return pattern.strip(), None


@functools.lru_cache(maxsize=1024)
def parse_pattern(pattern: str):
    """Parse a pattern string into (list-of-stmt-patterns | expr-pattern, occurrence).

    Memoised: ``Procedure.find`` re-runs the same pattern strings constantly
    (every scheduling-library call site), and ``ast.parse`` dominates the cost
    of small searches.  The returned Python ``ast`` nodes are shared between
    calls; matching only ever reads them.
    """
    body, occurrence = _strip_occurrence(pattern)
    try:
        tree = parse_python(body)
    except SyntaxError as e:
        raise ParseError(f"could not parse pattern {pattern!r}: {e}") from None
    stmts = tree.body
    if len(stmts) == 1 and isinstance(stmts[0], ast.Expr) and not isinstance(stmts[0].value, ast.Call):
        return ("expr", stmts[0].value, occurrence)
    if len(stmts) == 1 and isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Call):
        # A call could be a call-statement pattern; treat as statement pattern.
        return ("stmts", stmts, occurrence)
    return ("stmts", stmts, occurrence)


# ---------------------------------------------------------------------------
# Expression matching
# ---------------------------------------------------------------------------


def _name_of(node) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    return None


def match_expr(pat, e) -> bool:
    """Does expression pattern ``pat`` (a Python ast) match IR expression ``e``?"""
    if _name_of(pat) == _WILD:
        return True
    if isinstance(pat, ast.Name):
        return isinstance(e, (N.Read, N.WindowExpr)) and e.name.name == pat.id and not getattr(e, "idx", [])
    if isinstance(pat, ast.Constant):
        return isinstance(e, N.Const) and e.val == pat.value
    if isinstance(pat, ast.Subscript):
        if not isinstance(e, (N.Read, N.WindowExpr)):
            return False
        bufname = _name_of(pat.value)
        if bufname != _WILD and e.name.name != bufname:
            return False
        slc = pat.slice
        dims = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        if len(dims) == 1 and _name_of(dims[0]) == _WILD:
            return True
        if len(dims) != len(e.idx):
            return False
        for d, i in zip(dims, e.idx):
            ir_i = i.pt if isinstance(i, N.Point) else i
            if isinstance(d, ast.Slice):
                if not isinstance(i, N.Interval):
                    return False
                continue
            if isinstance(i, N.Interval):
                return False
            if not match_expr(d, ir_i):
                return False
        return True
    if isinstance(pat, ast.BinOp):
        if not isinstance(e, N.BinOp):
            return False
        from .parser import _BINOP

        op = _BINOP.get(type(pat.op))
        if op is None or op != e.op:
            return False
        return match_expr(pat.left, e.lhs) and match_expr(pat.right, e.rhs)
    if isinstance(pat, ast.UnaryOp) and isinstance(pat.op, ast.USub):
        if isinstance(e, N.USub):
            return match_expr(pat.operand, e.arg)
        if isinstance(e, N.Const) and isinstance(pat.operand, ast.Constant):
            return e.val == -pat.operand.value
        return False
    if isinstance(pat, ast.Compare):
        if not isinstance(e, N.BinOp):
            return False
        from .parser import _CMPOP

        if len(pat.ops) != 1:
            return False
        op = _CMPOP.get(type(pat.ops[0]))
        if op != e.op:
            return False
        return match_expr(pat.left, e.lhs) and match_expr(pat.comparators[0], e.rhs)
    if isinstance(pat, ast.Call):
        fname = _name_of(pat.func)
        if isinstance(e, N.Extern):
            if fname != _WILD and e.fname != fname:
                return False
            return _match_args(pat.args, e.args)
        if isinstance(e, N.StrideExpr) and fname == "stride":
            return True
        return False
    return False


def _match_args(pats, args) -> bool:
    if len(pats) == 1 and _name_of(pats[0]) == _WILD:
        return True
    if len(pats) != len(args):
        return False
    return all(match_expr(p, a) for p, a in zip(pats, args))


# ---------------------------------------------------------------------------
# Statement matching
# ---------------------------------------------------------------------------


def _is_wild_stmt(pat) -> bool:
    return isinstance(pat, ast.Expr) and _name_of(pat.value) == _WILD


def _match_write(pat_target, stmt) -> bool:
    """Match the LHS of an assignment/reduction pattern."""
    if isinstance(pat_target, ast.Name):
        if pat_target.id == _WILD:
            return True
        return stmt.name.name == pat_target.id and not stmt.idx
    if isinstance(pat_target, ast.Subscript):
        bufname = _name_of(pat_target.value)
        if bufname != _WILD and stmt.name.name != bufname:
            return False
        slc = pat_target.slice
        dims = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        if len(dims) == 1 and _name_of(dims[0]) == _WILD:
            return True
        if len(dims) != len(stmt.idx):
            return False
        return all(match_expr(d, i) for d, i in zip(dims, stmt.idx))
    return False


def match_stmt(pat, s) -> bool:
    """Does statement pattern ``pat`` match IR statement ``s``?"""
    if _is_wild_stmt(pat):
        return True
    if isinstance(pat, ast.For):
        if not isinstance(s, N.For):
            return False
        if pat.target.id != _WILD and s.iter.name != pat.target.id:
            return False
        it = pat.iter
        if isinstance(it, ast.Call) and _name_of(it.func) in ("seq", "par") and len(it.args) == 2:
            if not (match_expr(it.args[0], s.lo) and match_expr(it.args[1], s.hi)):
                return False
        elif _name_of(it) == _WILD:
            pass
        else:
            return False
        return match_body(pat.body, s.body)
    if isinstance(pat, ast.If):
        if not isinstance(s, N.If):
            return False
        if _name_of(pat.test) != _WILD and not match_expr(pat.test, s.cond):
            return False
        if not match_body(pat.body, s.body):
            return False
        if pat.orelse and not match_body(pat.orelse, s.orelse):
            return False
        return True
    if isinstance(pat, ast.Assign):
        if len(pat.targets) != 1:
            return False
        if isinstance(s, N.Assign):
            return _match_write(pat.targets[0], s) and match_expr(pat.value, s.rhs)
        if isinstance(s, N.WindowStmt) and isinstance(pat.targets[0], ast.Name):
            t = pat.targets[0]
            if t.id != _WILD and s.name.name != t.id:
                return False
            return match_expr(pat.value, s.rhs)
        return False
    if isinstance(pat, ast.AugAssign):
        if not isinstance(s, N.Reduce):
            return False
        return _match_write(pat.target, s) and match_expr(pat.value, s.rhs)
    if isinstance(pat, ast.AnnAssign):
        if not isinstance(s, N.Alloc):
            return False
        if isinstance(pat.target, ast.Name) and pat.target.id != _WILD:
            if s.name.name != pat.target.id:
                return False
        return True
    if isinstance(pat, ast.Expr) and isinstance(pat.value, ast.Call):
        call = pat.value
        fname = _name_of(call.func)
        if not isinstance(s, N.Call):
            return False
        callee_name = s.proc.name() if callable(getattr(s.proc, "name", None)) else s.proc.name
        if fname != _WILD and callee_name != fname:
            return False
        return _match_args(call.args, s.args)
    if isinstance(pat, ast.Pass):
        return isinstance(s, N.Pass)
    return False


def match_body(pats, stmts) -> bool:
    """Match a pattern body against a statement list.

    A single ``_`` pattern matches any (possibly empty) body.  Otherwise the
    patterns must match a prefix of the statement list, with a trailing ``_``
    allowed to absorb the rest.
    """
    if len(pats) == 1 and _is_wild_stmt(pats[0]):
        return True
    i = 0
    for pat in pats:
        if _is_wild_stmt(pat):
            return True
        if i >= len(stmts):
            return False
        if not match_stmt(pat, stmts[i]):
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# Searching
# ---------------------------------------------------------------------------


def find_pattern_matches(root, base_path: Path, pattern: str) -> Tuple[List[Match], Optional[int]]:
    """Find all matches of ``pattern`` in the subtree at ``base_path`` of ``root``.

    Returns the matches (in pre-order) and the requested occurrence index (if
    the pattern carried a ``#k`` suffix).
    """
    kind, pat, occurrence = parse_pattern(pattern)
    subtree = get_node(root, base_path) if base_path else root
    matches: List[Match] = []

    if kind == "expr":
        for node, rel_path in walk(subtree):
            if isinstance(node, N.Expr) and match_expr(pat, node):
                matches.append(Match("expr", path=base_path + rel_path))
        matches.sort(key=lambda m: _program_order_key(m.path))
        return matches, occurrence

    pats = pat  # list of ast statements
    npat = len(pats)
    for owner_rel, attr, stmts in stmt_list_field_paths(subtree):
        for start in range(len(stmts)):
            if start + npat > len(stmts):
                break
            if all(match_stmt(p, s) for p, s in zip(pats, stmts[start : start + npat])):
                matches.append(
                    Match(
                        "block",
                        owner_path=base_path + owner_rel,
                        attr=attr,
                        start=start,
                        length=npat,
                    )
                )
    matches.sort(key=lambda m: _program_order_key(m.owner_path + ((m.attr, m.start),)))
    return matches, occurrence


_ATTR_ORDER = {"lo": 0, "hi": 1, "cond": 0, "idx": 0, "lhs": 0, "rhs": 2, "args": 0, "arg": 0, "body": 3, "orelse": 4, "pt": 0}


def _program_order_key(path: Path):
    """Sort key that orders matches by their position in the program text."""
    key = []
    for attr, idx in path:
        key.append((_ATTR_ORDER.get(attr, 2), -1 if idx is None else idx))
    return key
