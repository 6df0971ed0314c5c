"""Pretty printing of object code.

The printer produces the same surface syntax accepted by the front-end, so
``str(proc)`` round-trips visually with the paper's listings::

    def gemv(M: size, N: size, A: f32[M, N] @ DRAM, ...):
        assert M % 8 == 0
        for i in seq(0, M):
            for j in seq(0, N):
                y[i] += A[i, j] * x[j]
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

from . import nodes as N
from .externs import extern_by_name, has_extern
from .types import ScalarType, TensorType

__all__ = ["expr_str", "stmt_lines", "proc_str", "procedure_digest", "block_str"]

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "%": 5,
}


def expr_str(e, prec: int = 0) -> str:
    """Render an expression as surface syntax."""
    if isinstance(e, N.Const):
        if isinstance(e.val, bool):
            return "True" if e.val else "False"
        if isinstance(e.val, float):
            return repr(float(e.val))
        return str(e.val)
    if isinstance(e, N.Read):
        if e.idx:
            return f"{e.name}[{', '.join(expr_str(i) for i in e.idx)}]"
        return str(e.name)
    if isinstance(e, N.BinOp):
        p = _PRECEDENCE.get(e.op, 3)
        op = f" {e.op} " if e.op in ("and", "or") else f" {e.op} "
        s = f"{expr_str(e.lhs, p)}{op}{expr_str(e.rhs, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, N.USub):
        return f"-{expr_str(e.arg, 6)}"
    if isinstance(e, N.WindowExpr):
        parts = []
        for w in e.idx:
            if isinstance(w, N.Interval):
                parts.append(f"{expr_str(w.lo)}:{expr_str(w.hi)}")
            else:
                parts.append(expr_str(w.pt))
        return f"{e.name}[{', '.join(parts)}]"
    if isinstance(e, N.StrideExpr):
        return f"stride({e.name}, {e.dim})"
    if isinstance(e, N.Extern):
        return f"{e.fname}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, N.ReadConfig):
        return f"{e.config.name()}.{e.field_name}"
    if isinstance(e, N.Interval):
        return f"{expr_str(e.lo)}:{expr_str(e.hi)}"
    if isinstance(e, N.Point):
        return expr_str(e.pt)
    raise TypeError(f"cannot print expression of type {type(e).__name__}")


def _type_str(typ, mem=None) -> str:
    if isinstance(typ, TensorType):
        dims = ", ".join(expr_str(d) for d in typ.shape)
        base = f"[{typ.base}][{dims}]" if typ.is_window else f"{typ.base}[{dims}]"
    else:
        base = str(typ)
    if mem is not None:
        return f"{base} @ {mem}"
    return base


def stmt_lines(stmts: List[N.Stmt], indent: int = 0) -> List[str]:
    """Render a statement block as a list of indented source lines."""
    pad = "    " * indent
    return [pad + line for s in stmts for line in _lines_of(s)]


def _lines_of(s: N.Stmt) -> Sequence[str]:
    """The source lines of one statement at indent 0.  Those of a leaf
    statement are memoised on the node (immutable, see :mod:`repro.ir.nodes`):
    printing an edited procedure formats only the expressions the edit
    rebuilt.  A scope re-indents its statements' lines each time instead —
    every version of a procedure rebuilds the scopes around its edit, and a
    memo there would keep a copy of their whole text alive per version."""
    if isinstance(s, (N.For, N.If)):
        return _render(s)
    return N.memo(s, "_lines", lambda s: tuple(_render(s)))


def _render(s: N.Stmt) -> List[str]:
    if isinstance(s, N.Assign):
        lhs = f"{s.name}[{', '.join(expr_str(i) for i in s.idx)}]" if s.idx else str(s.name)
        return [f"{lhs} = {expr_str(s.rhs)}"]
    if isinstance(s, N.Reduce):
        lhs = f"{s.name}[{', '.join(expr_str(i) for i in s.idx)}]" if s.idx else str(s.name)
        return [f"{lhs} += {expr_str(s.rhs)}"]
    if isinstance(s, N.Alloc):
        return [f"{s.name}: {_type_str(s.typ, s.mem)}"]
    if isinstance(s, N.For):
        kw = "par" if s.pragma == "par" else "seq"
        head = f"for {s.iter} in {kw}({expr_str(s.lo)}, {expr_str(s.hi)}):"
        return [head] + (stmt_lines(s.body, 1) or ["    pass"])
    if isinstance(s, N.If):
        lines = [f"if {expr_str(s.cond)}:"] + (stmt_lines(s.body, 1) or ["    pass"])
        if s.orelse:
            lines += ["else:"] + stmt_lines(s.orelse, 1)
        return lines
    if isinstance(s, N.Pass):
        return ["pass"]
    if isinstance(s, N.Call):
        return [f"{s.proc.name()}({', '.join(expr_str(a) for a in s.args)})"]
    if isinstance(s, N.WindowStmt):
        return [f"{s.name} = {expr_str(s.rhs)}"]
    # N.WriteConfig, the one kind left
    return [f"{s.config.name()}.{s.field_name} = {expr_str(s.rhs)}"]


def block_str(stmts: List[N.Stmt], indent: int = 0) -> str:
    return "\n".join(stmt_lines(stmts, indent))


def proc_str(proc: N.ProcDef) -> str:
    """Render a whole procedure."""
    args = ", ".join(f"{a.name}: {_type_str(a.typ, a.mem)}" for a in proc.args)
    lines = [f"def {proc.name}({args}):"]
    for p in proc.preds:
        lines.append(f"    assert {expr_str(p)}")
    body = stmt_lines(proc.body, 1)
    lines.extend(body or ["    pass"])
    return "\n".join(lines)


def procedure_digest(root) -> str:
    """The one identity of a procedure: the key of every cache of procedures
    (the replay cache's two tiers, the tuning leaderboard, the native
    artifact cache), the two ends of a trace and the name of a procedure
    argument in a trace or a schedule fingerprint.  A sha256 over the digest
    of its printed form (:func:`proc_str`) and what that print leaves out —
    its ``@instr`` template, this digest of the procedure each call site
    calls, the C template of each extern it uses, and each use of a symbol
    that is not the innermost binder of its name (the print would read it as
    that one).  Process-stable (no ``hash()``), and with the C backend's
    source digest it determines the emitted C; it is memoised on the
    immutable root, so only a procedure's first digest pays for it."""
    return N.memo(root, "_artifact_digest", _digest)


_USES = (N.Read, N.WindowExpr, N.StrideExpr, N.Assign, N.Reduce)


def _digest(root) -> str:
    parts = [hashlib.sha256(proc_str(root).encode()).hexdigest()[:16]]
    if root.instr is not None:
        parts.append(f"instr={root.instr.c_instr!r},{root.instr.c_global!r},{root.instr.intrinsic}")
    uses = 0

    def visit(n, scope) -> None:  # scope: name -> the symbols it binds, innermost last
        nonlocal uses
        t = type(n)
        if t in _USES:
            bound = scope.get(n.name.name, ())
            if not bound or bound[-1] is not n.name:
                # which binder of its name the use means, outermost first (-1: none in scope)
                parts.append(f"bind={uses}:{bound.index(n.name) if n.name in bound else -1}")
            uses += 1
        elif t is N.Extern:
            parts.append(f"extern={n.fname}:{extern_by_name(n.fname).c_template if has_extern(n.fname) else ''}")
        elif t is N.Call:
            parts.append(f"call={procedure_digest(n.proc._root)}")
        elif t is N.Alloc:
            for d in getattr(n.typ, "shape", ()):
                visit(d, scope)
        for attr, is_list in N.child_fields(n):
            if t is N.For and attr == "body":
                scope = _bind(scope, n.iter)
            child = getattr(n, attr)
            if not is_list:
                if child is not None:
                    visit(child, scope)
                continue
            inner = scope  # a statement binds for the ones after it in its block
            for c in child:
                visit(c, inner)
                if type(c) in (N.Alloc, N.WindowStmt):
                    inner = _bind(inner, c.name)

    scope: Dict[str, tuple] = {}
    for a in root.args:
        for d in getattr(a.typ, "shape", ()):
            visit(d, scope)
        scope = _bind(scope, a.name)
    for p in root.preds:
        visit(p, scope)
    visit(root, scope)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _bind(scope: Dict[str, tuple], sym) -> Dict[str, tuple]:
    return {**scope, sym.name: scope.get(sym.name, ()) + (sym,)}
