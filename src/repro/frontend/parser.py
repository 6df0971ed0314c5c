"""Front-end parser for the object language.

Procedures are written as decorated Python functions in the surface syntax
used throughout the paper::

    @proc
    def gemv(M: size, N: size,
             A: f32[M, N] @ DRAM,
             x: f32[N] @ DRAM,
             y: f32[M] @ DRAM):
        assert M % 8 == 0
        for i in seq(0, M):
            for j in seq(0, N):
                y[i] += A[i, j] * x[j]

The decorator grabs the function source, parses it with :mod:`ast`, and
converts it into the object IR (:mod:`repro.ir.nodes`).  Names that are not
bound inside the procedure (memory spaces, other procedures, configuration
objects) are resolved against the function's globals and closure.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from ..ir import nodes as N
from ..ir.config import Config
from ..ir.externs import has_extern
from ..ir.memories import DRAM, Memory, memory_by_name
from ..ir.syms import Sym
from ..ir.types import (
    ScalarType,
    TensorType,
    bool_t,
    index_t,
    int_t,
    scalar_type_from_name,
    size_t,
    NUMERIC_TYPE_NAMES,
)

__all__ = ["parse_proc_source", "parse_proc_function", "parse_expr_fragment"]

# CPython 3.11 converts a parsed tree to ast objects against a per-interpreter
# recursion counter.  A garbage collection inside that conversion can run
# Python finalizers, which yield the GIL; a second thread entering ast.parse
# then corrupts the counter ("SystemError: AST constructor recursion depth
# mismatch").  Every parse of the frontend (procedure sources, expression
# fragments, cursor patterns) goes through this one lock; it is re-entrant
# because nesting on one thread is safe and a finalizer may itself parse.
_ast_lock = threading.RLock()


def parse_python(src: str, mode: str = "exec") -> ast.AST:
    """``ast.parse``, serialised across threads."""
    with _ast_lock:
        return ast.parse(src, mode=mode)


_CMPOP = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

_BINOP = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "/",
    ast.Mod: "%",
}


class _Scope:
    """Lexically scoped mapping from names to (Sym, type, mem)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.entries: Dict[str, Tuple[Sym, object, Optional[Memory]]] = {}

    def define(self, name: str, sym: Sym, typ, mem: Optional[Memory] = None) -> None:
        self.entries[name] = (sym, typ, mem)

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.entries:
                return scope.entries[name]
            scope = scope.parent
        return None

    def child(self) -> "_Scope":
        return _Scope(self)


class _ProcParser:
    """Converts a Python ``ast.FunctionDef`` into a :class:`ProcDef`."""

    def __init__(self, func_def: ast.FunctionDef, globals_env: Dict[str, object]):
        self.func_def = func_def
        self.globals_env = globals_env
        self.scope = _Scope()
        self.scalar_allocs = set()  # Syms a call may pass by reference, as 0-d cells

    # -- error handling ------------------------------------------------------

    def err(self, node, msg: str):
        line = getattr(node, "lineno", "?")
        raise ParseError(f"{self.func_def.name}:{line}: {msg}")

    # -- environment lookups -------------------------------------------------

    def resolve_global(self, name: str):
        if name in self.globals_env:
            return self.globals_env[name]
        return None

    def resolve_memory(self, node) -> Memory:
        if isinstance(node, ast.Name):
            obj = self.resolve_global(node.id)
            if isinstance(obj, Memory):
                return obj
            try:
                return memory_by_name(node.id)
            except KeyError:
                self.err(node, f"unknown memory space {node.id!r}")
        if isinstance(node, ast.Attribute):
            obj = self.resolve_global(node.attr)
            if isinstance(obj, Memory):
                return obj
        self.err(node, "expected a memory space after '@'")

    # -- type annotations ----------------------------------------------------

    def parse_annotation(self, node) -> Tuple[object, Optional[Memory]]:
        """Parse an argument/alloc annotation, returning (type, memory)."""
        mem = None
        # string annotations (PEP 563 style or explicitly quoted) are re-parsed
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = parse_python(node.value, mode="eval").body
        # `f32[M, N] @ DRAM` parses as BinOp(MatMult)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            mem = self.resolve_memory(node.right)
            node = node.left
        typ = self.parse_type(node)
        return typ, mem

    def parse_type(self, node):
        if isinstance(node, ast.Name):
            name = node.id
            if name == "size":
                return size_t
            if name == "index":
                return index_t
            if name == "bool":
                return bool_t
            if name in NUMERIC_TYPE_NAMES:
                return scalar_type_from_name(name)
            self.err(node, f"unknown type {name!r}")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # precision given as a string, e.g. "f32"
            return scalar_type_from_name(node.value)
        if isinstance(node, ast.Subscript):
            base_node = node.value
            is_window = False
            if isinstance(base_node, ast.List):
                # `[f32][M, N]` — window type
                if len(base_node.elts) != 1:
                    self.err(node, "window base type must be a single scalar type")
                base = self.parse_type(base_node.elts[0])
                is_window = True
            else:
                base = self.parse_type(base_node)
            if not isinstance(base, ScalarType) or not base.is_numeric:
                self.err(node, "tensor base type must be numeric")
            dims_node = node.slice
            dims = dims_node.elts if isinstance(dims_node, ast.Tuple) else [dims_node]
            shape = [self.parse_expr(d) for d in dims]
            return TensorType(base, shape, is_window)
        self.err(node, "cannot parse type annotation")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, node) -> N.Expr:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return N.Const(v, bool_t)
            if isinstance(v, int):
                return N.Const(v, int_t)
            if isinstance(v, float):
                return N.Const(v, scalar_type_from_name("f64"))
            self.err(node, f"unsupported literal {v!r}")
        if isinstance(node, ast.Name):
            entry = self.scope.lookup(node.id)
            if entry is None:
                # maybe a global config read handled elsewhere, or an error
                obj = self.resolve_global(node.id)
                if isinstance(obj, (int, float)):
                    return N.Const(obj, int_t if isinstance(obj, int) else scalar_type_from_name("f64"))
                self.err(node, f"undefined variable {node.id!r}")
            sym, typ, _mem = entry
            base = typ.basetype() if isinstance(typ, TensorType) else typ
            return N.Read(sym, [], base if isinstance(typ, ScalarType) else typ)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                self.err(node, "'@' only allowed in type annotations")
            op = _BINOP.get(type(node.op))
            if op is None:
                self.err(node, f"unsupported operator {type(node.op).__name__}")
            lhs = self.parse_expr(node.left)
            rhs = self.parse_expr(node.right)
            typ = self._binop_type(lhs, rhs)
            return N.BinOp(op, lhs, rhs, typ)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                arg = self.parse_expr(node.operand)
                if isinstance(arg, N.Const):
                    return N.Const(-arg.val, arg.typ)
                return N.USub(arg, arg.typ)
            self.err(node, "unsupported unary operator")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                self.err(node, "chained comparisons are not supported")
            op = _CMPOP.get(type(node.ops[0]))
            if op is None:
                self.err(node, "unsupported comparison operator")
            return N.BinOp(op, self.parse_expr(node.left), self.parse_expr(node.comparators[0]), bool_t)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            vals = [self.parse_expr(v) for v in node.values]
            out = vals[0]
            for v in vals[1:]:
                out = N.BinOp(op, out, v, bool_t)
            return out
        if isinstance(node, ast.Subscript):
            return self.parse_access(node)
        if isinstance(node, ast.Call):
            return self.parse_call_expr(node)
        if isinstance(node, ast.Attribute):
            # config read: cfg.field
            obj = self.resolve_global(node.value.id) if isinstance(node.value, ast.Name) else None
            if isinstance(obj, Config):
                return N.ReadConfig(obj, node.attr, obj.field_type(node.attr))
            self.err(node, "unsupported attribute expression")
        self.err(node, f"unsupported expression {ast.dump(node)}")

    def _binop_type(self, lhs: N.Expr, rhs: N.Expr):
        lt, rt = getattr(lhs, "typ", int_t), getattr(rhs, "typ", int_t)
        for t in (lt, rt):
            if isinstance(t, ScalarType) and t.is_numeric:
                return t
        return index_t

    def parse_access(self, node: ast.Subscript):
        if not isinstance(node.value, ast.Name):
            self.err(node, "only simple names can be indexed")
        entry = self.scope.lookup(node.value.id)
        if entry is None:
            self.err(node, f"undefined buffer {node.value.id!r}")
        sym, typ, _mem = entry
        slc = node.slice
        dims = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        has_slice = any(isinstance(d, ast.Slice) for d in dims)
        base = typ.basetype() if isinstance(typ, TensorType) else typ
        if has_slice:
            widx: List[object] = []
            for d in dims:
                if isinstance(d, ast.Slice):
                    lo = self.parse_expr(d.lower) if d.lower is not None else N.Const(0, int_t)
                    if d.upper is None:
                        self.err(node, "windows require explicit upper bounds")
                    hi = self.parse_expr(d.upper)
                    widx.append(N.Interval(lo, hi))
                else:
                    widx.append(N.Point(self.parse_expr(d)))
            n_dims = sum(1 for w in widx if isinstance(w, N.Interval))
            wtyp = TensorType(base, [N.Const(0, int_t)] * n_dims, True)
            return N.WindowExpr(sym, widx, wtyp)
        idx = [self.parse_expr(d) for d in dims]
        return N.Read(sym, idx, base)

    def parse_call_expr(self, node: ast.Call) -> N.Expr:
        if not isinstance(node.func, ast.Name):
            self.err(node, "unsupported call expression")
        fname = node.func.id
        if fname == "stride":
            if len(node.args) != 2 or not isinstance(node.args[0], ast.Name):
                self.err(node, "stride() takes a buffer name and a dimension")
            entry = self.scope.lookup(node.args[0].id)
            if entry is None:
                self.err(node, f"undefined buffer {node.args[0].id!r}")
            dim = node.args[1]
            if not isinstance(dim, ast.Constant):
                self.err(node, "stride() dimension must be a constant")
            return N.StrideExpr(entry[0], dim.value, index_t)
        if has_extern(fname):
            args = [self.parse_expr(a) for a in node.args]
            typ = args[0].typ if args else index_t
            return N.Extern(fname, args, typ)
        self.err(node, f"unknown function {fname!r} in expression")

    # -- statements ----------------------------------------------------------

    def parse_stmts(self, stmts: List[ast.stmt]) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        for s in stmts:
            out.extend(self.parse_stmt(s))
        return out

    def parse_stmt(self, node: ast.stmt) -> List[N.Stmt]:
        if isinstance(node, ast.For):
            return [self.parse_for(node)]
        if isinstance(node, ast.If):
            cond = self.parse_expr(node.test)
            body_scope = self.scope
            self.scope = self.scope.child()
            body = self.parse_stmts(node.body)
            self.scope = body_scope
            self.scope = self.scope.child()
            orelse = self.parse_stmts(node.orelse)
            self.scope = body_scope
            return [N.If(cond, body, orelse)]
        if isinstance(node, ast.AnnAssign):
            return [self.parse_alloc(node)]
        if isinstance(node, ast.Assign):
            return [self.parse_assign(node)]
        if isinstance(node, ast.AugAssign):
            return [self.parse_reduce(node)]
        if isinstance(node, ast.Pass):
            return [N.Pass()]
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            return [self.parse_call_stmt(node.value)]
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            # docstring — ignore
            return []
        if isinstance(node, ast.Assert):
            self.err(node, "assert statements are only allowed at the top of a procedure")
        self.err(node, f"unsupported statement {type(node).__name__}")

    def parse_for(self, node: ast.For) -> N.For:
        if not isinstance(node.target, ast.Name):
            self.err(node, "loop target must be a simple name")
        it = node.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id in ("seq", "par")):
            self.err(node, "loops must iterate over seq(lo, hi) or par(lo, hi)")
        if len(it.args) != 2:
            self.err(node, "seq()/par() take exactly (lo, hi)")
        lo = self.parse_expr(it.args[0])
        hi = self.parse_expr(it.args[1])
        sym = Sym(node.target.id)
        outer = self.scope
        self.scope = outer.child()
        self.scope.define(node.target.id, sym, index_t, None)
        body = self.parse_stmts(node.body)
        self.scope = outer
        return N.For(sym, lo, hi, body, "par" if it.func.id == "par" else "seq")

    def parse_alloc(self, node: ast.AnnAssign) -> N.Alloc:
        if node.value is not None:
            self.err(node, "allocations cannot have initial values")
        if not isinstance(node.target, ast.Name):
            self.err(node, "allocation target must be a simple name")
        typ, mem = self.parse_annotation(node.annotation)
        sym = Sym(node.target.id)
        self.scope.define(node.target.id, sym, typ, mem or DRAM)
        if isinstance(typ, ScalarType):
            self.scalar_allocs.add(sym)
        return N.Alloc(sym, typ, mem or DRAM)

    def _parse_write_target(self, target):
        """Parse the left-hand side of an assignment/reduction."""
        if isinstance(target, ast.Name):
            entry = self.scope.lookup(target.id)
            if entry is None:
                self.err(target, f"assignment to undeclared variable {target.id!r}")
            sym, typ, _ = entry
            base = typ.basetype() if isinstance(typ, TensorType) else typ
            return sym, [], base
        if isinstance(target, ast.Subscript):
            acc = self.parse_access(target)
            if isinstance(acc, N.WindowExpr):
                self.err(target, "cannot assign to a window expression")
            return acc.name, acc.idx, acc.typ
        if isinstance(target, ast.Attribute):
            obj = self.resolve_global(target.value.id) if isinstance(target.value, ast.Name) else None
            if isinstance(obj, Config):
                return (obj, target.attr), None, obj.field_type(target.attr)
        self.err(target, "unsupported assignment target")

    def parse_assign(self, node: ast.Assign):
        if len(node.targets) != 1:
            self.err(node, "multiple assignment targets are not supported")
        target = node.targets[0]
        # window statement: `w = A[0:16, j]`
        if isinstance(target, ast.Name) and isinstance(node.value, ast.Subscript):
            value = self.parse_expr(node.value)
            if isinstance(value, N.WindowExpr):
                sym = Sym(target.id)
                self.scope.define(target.id, sym, value.typ, None)
                return N.WindowStmt(sym, value)
            # fall through for plain scalar read on the RHS
            lhs = self._parse_write_target(target)
            return N.Assign(lhs[0], lhs[1], value, lhs[2])
        lhs = self._parse_write_target(target)
        rhs = self.parse_expr(node.value)
        if isinstance(lhs[0], tuple):
            config, field = lhs[0]
            return N.WriteConfig(config, field, rhs)
        return N.Assign(lhs[0], lhs[1], rhs, lhs[2])

    def parse_reduce(self, node: ast.AugAssign):
        if not isinstance(node.op, ast.Add):
            self.err(node, "only '+=' reductions are supported")
        lhs = self._parse_write_target(node.target)
        if isinstance(lhs[0], tuple):
            self.err(node, "cannot reduce into configuration state")
        rhs = self.parse_expr(node.value)
        return N.Reduce(lhs[0], lhs[1], rhs, lhs[2])

    def parse_call_stmt(self, node: ast.Call) -> N.Stmt:
        if not isinstance(node.func, ast.Name):
            self.err(node, "unsupported call")
        fname = node.func.id
        callee = self.resolve_global(fname)
        if callee is None and has_extern(fname):
            # extern used in statement position: treat as assignment to the
            # second argument (matches the paper's `acc_scale(src, dst, s)`
            # pseudo-instructions) — modelled instead via @instr procs, so
            # reject here to keep semantics unambiguous.
            self.err(node, f"extern {fname!r} cannot be used as a statement")
        if callee is None or not hasattr(callee, "_root"):
            self.err(node, f"call to unknown procedure {fname!r}")
        args = [self.parse_expr(a) for a in node.args]
        params = callee._root.args
        if len(args) != len(params):
            self.err(node, f"{fname} takes {len(params)} argument(s), {len(args)} given")
        for fa, actual in zip(params, args):
            if isinstance(fa.typ, TensorType) and not self._is_buffer(actual):
                self.err(
                    node,
                    f"argument {fa.name.name!r} of {fname} is a tensor: pass a buffer "
                    "or a window, not a value",
                )
        return N.Call(callee, args)

    def _is_buffer(self, e: N.Expr) -> bool:
        """Can ``e`` be passed by reference: a window, a tensor, or a scalar
        allocation (as a 0-d cell)?"""
        if isinstance(e, N.WindowExpr):
            return True
        return (
            isinstance(e, N.Read)
            and not e.idx
            and (isinstance(e.typ, TensorType) or e.name in self.scalar_allocs)
        )

    # -- procedure -----------------------------------------------------------

    def parse(self) -> N.ProcDef:
        args: List[N.FnArg] = []
        fd = self.func_def
        if fd.args.defaults or fd.args.kwonlyargs or fd.args.vararg or fd.args.kwarg:
            self.err(fd, "procedure arguments cannot have defaults or be variadic")
        for a in fd.args.args:
            if a.annotation is None:
                self.err(a, f"argument {a.arg!r} needs a type annotation")
            typ, mem = self.parse_annotation(a.annotation)
            sym = Sym(a.arg)
            self.scope.define(a.arg, sym, typ, mem)
            args.append(N.FnArg(sym, typ, mem))

        preds: List[N.Expr] = []
        body_stmts = list(fd.body)
        # strip a leading docstring
        if body_stmts and isinstance(body_stmts[0], ast.Expr) and isinstance(body_stmts[0].value, ast.Constant):
            body_stmts = body_stmts[1:]
        while body_stmts and isinstance(body_stmts[0], ast.Assert):
            preds.append(self.parse_expr(body_stmts[0].test))
            body_stmts = body_stmts[1:]

        body = self.parse_stmts(body_stmts)
        return N.ProcDef(fd.name, args, preds, body, None)


#: the (empty) function an expression fragment is parsed "inside"
_FRAGMENT_DEF = parse_python("def __frag__(): pass").body[0]


def _function_def_from_source(src: str) -> ast.FunctionDef:
    tree = parse_python(textwrap.dedent(src))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise ParseError("no function definition found in source")


def parse_proc_source(src: str, globals_env: Optional[Dict[str, object]] = None) -> N.ProcDef:
    """Parse object code given as a source string."""
    fd = _function_def_from_source(src)
    return _ProcParser(fd, globals_env or {}).parse()


def parse_proc_function(func, globals_env: Optional[Dict[str, object]] = None) -> N.ProcDef:
    """Parse object code given as a live (decorated) Python function."""
    src = inspect.getsource(func)
    env = dict(func.__globals__)
    if func.__closure__:
        for name, cell in zip(func.__code__.co_freevars, func.__closure__):
            try:
                env[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                pass
    if globals_env:
        env.update(globals_env)
    fd = _function_def_from_source(src)
    return _ProcParser(fd, env).parse()


def parse_expr_fragment(src: str, proc_def: N.ProcDef, at_path=()) -> N.Expr:
    """Parse an expression string (an ``add_assertion`` predicate, a
    ``specialize`` condition, a window) against an existing procedure.  Names
    resolve exactly in the scope of ``at_path``: the procedure's arguments,
    the iterators of the loops whose bodies the path enters (innermost wins),
    and at each level the ``Alloc``/``WindowStmt`` names among the *earlier
    siblings* — so a second loop of the same name elsewhere is never seen."""
    node = parse_python(src, mode="eval").body
    parser = _ProcParser(_FRAGMENT_DEF, {})
    define = parser.scope.define
    for arg in proc_def.args:
        define(arg.name.name, arg.name, arg.typ, arg.mem)
    at = proc_def
    for attr, idx in at_path:
        if attr not in ("body", "orelse"):
            break  # an expression position binds nothing further
        if isinstance(at, N.For):
            define(at.iter.name, at.iter, index_t, None)
        stmts = getattr(at, attr)
        for s in stmts[:idx]:
            if isinstance(s, N.Alloc):
                define(s.name.name, s.name, s.typ, s.mem)
            elif isinstance(s, N.WindowStmt):
                define(s.name.name, s.name, s.rhs.typ, None)
        if idx >= len(stmts):
            break  # the gap after the last statement
        at = stmts[idx]
    return parser.parse_expr(node)
