"""Affine/linear analysis of index expressions.

This module replaces the SMT solver used by the original Exo implementation
with a lightweight symbolic engine that is sufficient for the reasoning the
scheduling libraries in this repository need:

* normalisation of index expressions into linear forms over *atoms*
  (symbols, and opaque sub-expressions such as ``x / 8`` or ``x % 8``),
* constant folding and algebraic simplification (used by the ``simplify``
  primitive),
* proving facts such as equality of two index expressions, divisibility of an
  expression by a constant, or comparisons, under an environment of facts
  harvested from the procedure's ``assert`` predicates and enclosing loop
  bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..ir import nodes as N
from ..ir.build import same_tree, used_syms_expr, with_fields
from ..ir.printing import expr_str
from ..ir.syms import Sym
from ..ir.types import TensorType, bool_t, index_t, int_t

__all__ = [
    "LinearForm",
    "linearize",
    "linear_to_expr",
    "decompose",
    "FactEnv",
    "simplify_expr",
    "simplify_block",
    "simplify_proc",
    "exprs_equal",
    "prove",
    "prove_divisible",
    "const_value",
]


# ---------------------------------------------------------------------------
# Linear forms
# ---------------------------------------------------------------------------

# An atom is either a Sym or an opaque expression keyed by its printed form.


@dataclass(frozen=True)
class _OpaqueAtom:
    key: str
    expr_id: int  # id of a representative expression node (for rebuilding)

    def __repr__(self):
        return f"Opaque({self.key})"


class LinearForm:
    """A linear combination ``sum_k coeff_k * prod(atoms_k)`` with rational
    coefficients.  The empty product ``()`` is the constant term."""

    def __init__(self, terms: Optional[Dict[Tuple, Fraction]] = None):
        self.terms: Dict[Tuple, Fraction] = dict(terms or {})

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def constant(c) -> "LinearForm":
        return LinearForm({(): Fraction(c)} if c else {})

    @staticmethod
    def atom(a) -> "LinearForm":
        return LinearForm({(a,): Fraction(1)})

    # -- arithmetic -------------------------------------------------------------

    def _plus(self, other: "LinearForm", sign: int) -> "LinearForm":
        out = dict(self.terms)
        for k, v in other.terms.items():
            total = out.get(k, 0) + sign * v
            if total:
                out[k] = total
            else:
                out.pop(k, None)
        return LinearForm(out)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return self._plus(other, 1)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self._plus(other, -1)

    def scale(self, c) -> "LinearForm":
        c = Fraction(c)
        if c == 0:
            return LinearForm()
        return LinearForm({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "LinearForm") -> "LinearForm":
        out: Dict[Tuple, Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(sorted(k1 + k2, key=_atom_sort_key))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
                if out[key] == 0:
                    del out[key]
        return LinearForm(out)

    # -- queries ----------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(k == () for k in self.terms)

    def constant_value(self) -> Optional[Fraction]:
        if self.is_constant():
            return self.terms.get((), Fraction(0))
        return None

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set:
        out = set()
        for k in self.terms:
            out.update(k)
        return out

    def coeff_of(self, atom) -> Fraction:
        return self.terms.get((atom,), Fraction(0))

    def __repr__(self):
        return f"LinearForm({self.terms})"

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _atom_sort_key(a):
    if isinstance(a, Sym):
        return (0, a.name, a._id)
    return (1, a.key, 0)


_opaque_registry: Dict[str, N.Expr] = {}


def _opaque_key(e: N.Expr) -> str:
    """A canonical key for an opaque sub-expression.

    The printed form alone is not sufficient: two procedures may both contain
    an expression printed as ``n / 8`` whose ``n`` symbols are distinct, so the
    key also encodes the identities of the symbols involved.
    """
    sym_ids = "-".join(str(s._id) for s in sorted(used_syms_expr(e), key=lambda s: s._id))
    return f"{expr_str(e)}#{sym_ids}"


def _opaque(e: N.Expr) -> _OpaqueAtom:
    key = _opaque_key(e)
    _opaque_registry.setdefault(key, e)
    return _OpaqueAtom(key, id(_opaque_registry[key]))


def linearize(e: N.Expr) -> LinearForm:
    """Normalise an (index) expression into a linear form (memoised on the
    node: forms are values, and the expression never changes)."""
    return N.memo(e, "_linear", _linearize)


def _linearize(e: N.Expr) -> LinearForm:
    if isinstance(e, N.Const):
        if isinstance(e.val, bool):
            return LinearForm.constant(1 if e.val else 0)
        return LinearForm.constant(e.val)
    if isinstance(e, N.Read) and not e.idx:
        return LinearForm.atom(e.name)
    if isinstance(e, N.USub):
        return linearize(e.arg).scale(-1)
    if isinstance(e, N.BinOp):
        if e.op == "+":
            return linearize(e.lhs) + linearize(e.rhs)
        if e.op == "-":
            return linearize(e.lhs) - linearize(e.rhs)
        if e.op == "*":
            lhs, rhs = linearize(e.lhs), linearize(e.rhs)
            return lhs * rhs
        if e.op in ("/", "%"):
            # keep symbolic unless the numerator is constant
            lhs, rhs = linearize(e.lhs), linearize(e.rhs)
            lc, rc = lhs.constant_value(), rhs.constant_value()
            if lc is not None and rc is not None and rc != 0:
                if e.op == "/":
                    return LinearForm.constant(Fraction(int(lc) // int(rc)))
                return LinearForm.constant(Fraction(int(lc) % int(rc)))
            return LinearForm.atom(_opaque(e))
    return LinearForm.atom(_opaque(e))


def linear_to_expr(lf: LinearForm, typ=index_t) -> N.Expr:
    """Rebuild an expression from a linear form (used by ``simplify``)."""

    def atom_expr(a):
        if isinstance(a, Sym):
            return N.Read(a, [], typ)
        return _rebuild_opaque(a)

    def term_expr(key, coeff) -> N.Expr:
        factors = [atom_expr(a) for a in key]
        e = None
        for f in factors:
            e = f if e is None else N.BinOp("*", e, f, typ)
        c = int(coeff) if coeff.denominator == 1 else coeff
        if e is None:
            return N.Const(int(c) if isinstance(c, int) or c.denominator == 1 else float(c), int_t)
        if coeff == 1:
            return e
        if coeff == -1:
            return N.USub(e, typ)
        return N.BinOp("*", N.Const(int(c), int_t), e, typ)

    items = sorted(lf.terms.items(), key=lambda kv: (len(kv[0]), [_atom_sort_key(a) for a in kv[0]]))
    if not items:
        return N.Const(0, int_t)
    # put the constant term last to match the conventional "a*x + b" layout
    items = [kv for kv in items if kv[0] != ()] + [kv for kv in items if kv[0] == ()]
    out = None
    for key, coeff in items:
        term = term_expr(key, coeff)
        if out is None:
            out = term
            continue
        if isinstance(term, N.USub):
            out = N.BinOp("-", out, term.arg, typ)
        elif isinstance(term, N.Const) and isinstance(term.val, (int, float)) and term.val < 0:
            out = N.BinOp("-", out, N.Const(-term.val, term.typ), typ)
        elif coeff < 0 and isinstance(term, N.BinOp) and term.op == "*" and isinstance(term.lhs, N.Const):
            out = N.BinOp("-", out, N.BinOp("*", N.Const(-term.lhs.val, int_t), term.rhs, typ), typ)
        else:
            out = N.BinOp("+", out, term, typ)
    return out


def _rebuild_opaque(a: _OpaqueAtom) -> N.Expr:
    e = _opaque_registry.get(a.key)
    if e is None:  # pragma: no cover - defensive
        raise KeyError(f"unknown opaque atom {a.key!r}")
    return e


def const_value(e: N.Expr) -> Optional[int]:
    """The integer value of a constant index expression, if it is one."""
    lf = linearize(e)
    c = lf.constant_value()
    if c is None or c.denominator != 1:
        return None
    return int(c)


def decompose(lf: LinearForm, *iters: Sym) -> Optional[Tuple[Tuple[int, ...], LinearForm]]:
    """Split ``lf`` as ``sum_k coeff_k * iters_k + rest``: the integer
    coefficient of each named iterator, and a ``rest`` that mentions none of
    them.  ``None`` when ``lf`` is not affine in the iterators with constant
    integer coefficients — one sits inside a product or an opaque ``/``, ``%``
    (or buffer-read) atom.  This is what "affine access" means to the loop
    folder and the guard peeler."""
    if any(c.denominator != 1 for c in lf.terms.values()):
        return None
    rest = dict(lf.terms)
    coeffs = tuple(int(rest.pop((it,), 0)) for it in iters)
    for key in rest:
        for a in key:
            inside = (a,) if isinstance(a, Sym) else used_syms_expr(_opaque_registry[a.key])
            if any(it in inside for it in iters):
                return None
    return coeffs, LinearForm(rest)


# ---------------------------------------------------------------------------
# Fact environments
# ---------------------------------------------------------------------------


class FactEnv:
    """Facts about symbols, harvested from assertions and loop contexts.

    * divisibility facts  (``M % 8 == 0``)
    * range facts         (``lo <= x < hi`` for loop iterators, ``x >= 1`` for
      sizes, explicit ``N <= 88`` style assertions)
    * equality facts      (``x == e``)
    """

    def __init__(self):
        self.divisors: Dict[Sym, set] = {}
        self.lower: Dict[Sym, int] = {}
        self.upper: Dict[Sym, int] = {}  # inclusive upper bound

    def copy(self) -> "FactEnv":
        out = FactEnv()
        out.divisors = {k: set(v) for k, v in self.divisors.items()}
        out.lower = dict(self.lower)
        out.upper = dict(self.upper)
        return out

    # -- adding facts ------------------------------------------------------------

    def add_size(self, sym: Sym) -> None:
        self.lower[sym] = max(self.lower.get(sym, 1), 1)

    def add_divisible(self, sym: Sym, divisor: int) -> None:
        self.divisors.setdefault(sym, set()).add(divisor)

    def add_range(self, sym: Sym, lo: Optional[int], hi_inclusive: Optional[int]) -> None:
        if lo is not None:
            self.lower[sym] = max(self.lower.get(sym, lo), lo)
        if hi_inclusive is not None:
            cur = self.upper.get(sym)
            self.upper[sym] = hi_inclusive if cur is None else min(cur, hi_inclusive)

    def add_predicate(self, pred: N.Expr) -> None:
        """Digest an assertion expression into facts (best effort)."""
        if isinstance(pred, N.BinOp) and pred.op == "and":
            self.add_predicate(pred.lhs)
            self.add_predicate(pred.rhs)
            return
        if not isinstance(pred, N.BinOp):
            return
        lhs, rhs, op = pred.lhs, pred.rhs, pred.op
        # M % c == 0
        if (
            op == "=="
            and isinstance(lhs, N.BinOp)
            and lhs.op == "%"
            and isinstance(lhs.lhs, N.Read)
            and not lhs.lhs.idx
            and const_value(lhs.rhs) is not None
            and const_value(rhs) == 0
        ):
            self.add_divisible(lhs.lhs.name, const_value(lhs.rhs))
            return
        # x <= c / x < c / x >= c / x > c / x == c
        if isinstance(lhs, N.Read) and not lhs.idx and const_value(rhs) is not None:
            c = const_value(rhs)
            if op == "<=":
                self.add_range(lhs.name, None, c)
            elif op == "<":
                self.add_range(lhs.name, None, c - 1)
            elif op == ">=":
                self.add_range(lhs.name, c, None)
            elif op == ">":
                self.add_range(lhs.name, c + 1, None)
            elif op == "==":
                self.add_range(lhs.name, c, c)
            return
        # c <= x, etc.
        if isinstance(rhs, N.Read) and not rhs.idx and const_value(lhs) is not None:
            c = const_value(lhs)
            flipped = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "==": "=="}[op]
            self.add_predicate(N.BinOp(flipped, rhs, lhs, bool_t))
            return

    @staticmethod
    def from_proc(proc_def: N.ProcDef) -> "FactEnv":
        """The facts a procedure's signature and assertions give.  Digested
        once per root (memoised on it, see :mod:`repro.ir.nodes`); every call
        returns a private copy."""
        return N.memo(proc_def, "_fact_env", FactEnv._digest).copy()

    @staticmethod
    def _digest(proc_def: N.ProcDef) -> "FactEnv":
        env = FactEnv()
        for a in proc_def.args:
            if getattr(a.typ, "name", None) == "size":
                env.add_size(a.name)
        for p in proc_def.preds:
            env.add_predicate(p)
        return env

    def with_loop(self, iter_sym: Sym, lo: N.Expr, hi: N.Expr) -> "FactEnv":
        """Return a copy with facts for a loop iterator ``lo <= i < hi``.  The
        lower bound is whatever ``lo``'s own interval gives (unknown stays
        unknown), the upper bound a constant ``hi``."""
        out = self.copy()
        lo_b, _ = self.interval(linearize(lo))
        hi_c = const_value(hi)
        out.add_range(
            iter_sym,
            None if lo_b is None else math.ceil(lo_b),
            None if hi_c is None else hi_c - 1,
        )
        return out

    # -- interval evaluation -------------------------------------------------------

    def interval(self, lf: LinearForm) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Best-effort [lo, hi] bounds of a linear form (None = unbounded)."""
        lo = Fraction(0)
        hi = Fraction(0)
        lo_ok, hi_ok = True, True
        for key, coeff in lf.terms.items():
            if key == ():
                lo += coeff
                hi += coeff
                continue
            if len(key) != 1:
                # product term: only handle products of non-negative atoms
                lo_b, hi_b = Fraction(1), Fraction(1)
                ok = True
                for a in key:
                    alo, ahi = self._atom_interval(a)
                    if alo is None or alo < 0:
                        ok = False
                        break
                    lo_b *= alo
                    hi_b = None if (hi_b is None or ahi is None) else hi_b * ahi
                if not ok:
                    return None, None
                if coeff >= 0:
                    lo += coeff * lo_b
                    if hi_b is None:
                        hi_ok = False
                    else:
                        hi += coeff * hi_b
                else:
                    if hi_b is None:
                        lo_ok = False
                    else:
                        lo += coeff * hi_b
                    hi += coeff * lo_b
                continue
            a = key[0]
            alo, ahi = self._atom_interval(a)
            if coeff >= 0:
                if alo is None:
                    lo_ok = False
                else:
                    lo += coeff * alo
                if ahi is None:
                    hi_ok = False
                else:
                    hi += coeff * ahi
            else:
                if ahi is None:
                    lo_ok = False
                else:
                    lo += coeff * ahi
                if alo is None:
                    hi_ok = False
                else:
                    hi += coeff * alo
        return (lo if lo_ok else None), (hi if hi_ok else None)

    def _atom_interval(self, a) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        if isinstance(a, Sym):
            lo = self.lower.get(a)
            hi = self.upper.get(a)
            return (Fraction(lo) if lo is not None else None, Fraction(hi) if hi is not None else None)
        # opaque atoms: `x % d` and `x / d` for a divisor known non-negative
        # (a zero divisor has no value to bound: evaluation raises)
        e = _opaque_registry.get(a.key)
        if not (isinstance(e, N.BinOp) and e.op in ("/", "%")):
            return None, None
        d_lo, d_hi = self.interval(linearize(e.rhs))
        if d_lo is None or d_lo < 0:
            return None, None
        d_lo = max(d_lo, 1)
        if e.op == "%":
            return Fraction(0), (None if d_hi is None else d_hi - 1)
        # floor(n / d) grows with n, and moves towards zero as d grows
        n_lo, n_hi = self.interval(linearize(e.lhs))
        lo = hi = None
        if n_lo is not None:
            lo = n_lo // d_lo if n_lo < 0 else 0 if d_hi is None else n_lo // d_hi
        if n_hi is not None:
            hi = n_hi // d_lo if n_hi >= 0 else -1 if d_hi is None else n_hi // d_hi
        return (None if lo is None else Fraction(lo)), (None if hi is None else Fraction(hi))

    # -- divisibility ---------------------------------------------------------------

    def divisible(self, e: N.Expr, c: int) -> bool:
        """Can we prove that ``e`` is a multiple of ``c``?"""
        if c in (1, -1):
            return True
        lf = linearize(e)
        for key, coeff in lf.terms.items():
            if coeff.denominator != 1:
                return False
            if int(coeff) % c == 0:
                continue
            if key == ():
                return False
            # a single atom with a divisibility fact can absorb the coefficient
            ok = False
            for a in key:
                if isinstance(a, Sym):
                    for d in self.divisors.get(a, ()):
                        if (int(coeff) * d) % c == 0:
                            ok = True
                            break
                else:
                    ee = _opaque_registry.get(a.key)
                    # (x / c) * c style handled by coefficient already; x % c never helps
                    if isinstance(ee, N.BinOp) and ee.op == "/":
                        d = const_value(ee.rhs)
                        if d is not None and (int(coeff) * 1) % c == 0:
                            ok = True
                            break
                if ok:
                    break
            if not ok:
                return False
        return True


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def _simplify_divmod(e: N.BinOp, env: FactEnv) -> Optional[N.Expr]:
    """Targeted ``/`` and ``%`` rewrites justified by range / divisibility facts."""
    c = const_value(e.rhs)
    if c is None or c <= 0:
        return None
    lhs_lf = linearize(e.lhs)
    lo, hi = env.interval(lhs_lf)
    if e.op == "%":
        if lo is not None and hi is not None and lo >= 0 and hi < c:
            return simplify_expr(e.lhs, env)
        if env.divisible(e.lhs, c):
            return N.Const(0, int_t)
        # (c*q + r) % c  ->  r  when 0 <= r < c
        remainder = LinearForm()
        for key, coeff in lhs_lf.terms.items():
            if not (coeff.denominator == 1 and int(coeff) % c == 0):
                remainder = remainder + LinearForm({key: coeff})
        if remainder.terms != lhs_lf.terms:
            rlo, rhi = env.interval(remainder)
            if rlo is not None and rhi is not None and 0 <= rlo and rhi < c:
                return linear_to_expr(remainder, e.typ)
    if e.op == "/":
        if lo is not None and hi is not None and 0 <= lo and hi < c:
            return N.Const(0, int_t)
        # (c*q + r)/c  ->  q  when 0 <= r < c
        quotient = LinearForm()
        remainder = LinearForm()
        for key, coeff in lhs_lf.terms.items():
            if coeff.denominator == 1 and int(coeff) % c == 0:
                quotient = quotient + LinearForm({key: Fraction(int(coeff) // c)})
            else:
                remainder = remainder + LinearForm({key: coeff})
        if not quotient.is_zero():
            rlo, rhi = env.interval(remainder)
            if rlo is not None and rhi is not None and 0 <= rlo and rhi < c:
                return linear_to_expr(quotient, e.typ)
            if remainder.is_zero():
                return linear_to_expr(quotient, e.typ)
    return None


def _fold_divmod_pairs(lf: LinearForm) -> LinearForm:
    """Rewrite ``c*(x/c) + (x%c)``-shaped linear forms back to ``x``."""
    for atom in list(lf.atoms()):
        if not isinstance(atom, _OpaqueAtom):
            continue
        e = _opaque_registry.get(atom.key)
        if not (isinstance(e, N.BinOp) and e.op == "/" ):
            continue
        c = const_value(e.rhs)
        if c is None or c <= 0:
            continue
        mod_key = _opaque_key(N.BinOp("%", e.lhs, e.rhs, e.typ))
        mod_atom = None
        for a2 in lf.atoms():
            if isinstance(a2, _OpaqueAtom) and a2.key == mod_key:
                mod_atom = a2
                break
        if mod_atom is None:
            continue
        div_coeff = lf.terms.get((atom,), Fraction(0))
        mod_coeff = lf.terms.get((mod_atom,), Fraction(0))
        if mod_coeff != 0 and div_coeff == mod_coeff * c:
            new_terms = dict(lf.terms)
            del new_terms[(atom,)]
            del new_terms[(mod_atom,)]
            lf = LinearForm(new_terms) + linearize(e.lhs).scale(mod_coeff)
    return lf


def simplify_expr(e: N.Expr, env: Optional[FactEnv] = None) -> N.Expr:
    """Algebraically simplify an expression (constant folding, collection of
    linear terms, and fact-driven div/mod elimination).  Pure: ``e`` is never
    modified, and it is ``e`` itself that comes back when it was already
    simple."""
    out = _simplify(e, env or FactEnv())
    return e if same_tree(out, e) else out


def _simplify(e: N.Expr, env: FactEnv) -> N.Expr:
    if isinstance(e, (N.Const, N.StrideExpr, N.ReadConfig, N.WindowExpr)):
        return e
    if isinstance(e, N.Read):
        idx = [simplify_expr(i, env) for i in e.idx]
        return N.Read(e.name, idx, e.typ) if idx else e
    if isinstance(e, N.Extern):
        return N.Extern(e.fname, [simplify_expr(a, env) for a in e.args], e.typ)
    if isinstance(e, N.USub):
        arg = simplify_expr(e.arg, env)
        if isinstance(arg, N.Const):
            return N.Const(-arg.val, arg.typ)
        return N.USub(arg, e.typ)
    if isinstance(e, N.BinOp):
        lhs = simplify_expr(e.lhs, env)
        rhs = simplify_expr(e.rhs, env)
        e = N.BinOp(e.op, lhs, rhs, e.typ)
        numeric = _is_numeric_value_type(e)
        if e.op in ("+", "-", "*") and not numeric:
            lf = linearize(e)
            lf = _fold_divmod_pairs(lf)
            return linear_to_expr(lf, e.typ)
        if e.op in ("/", "%") and not numeric:
            folded = _simplify_divmod(e, env)
            if folded is not None:
                return folded
            lc, rc = const_value(lhs), const_value(rhs)
            if lc is not None and rc not in (None, 0):
                return N.Const(lc // rc if e.op == "/" else lc % rc, int_t)
            return e
        # numeric (data) arithmetic: fold constants only
        if isinstance(lhs, N.Const) and isinstance(rhs, N.Const):
            try:
                val = {
                    "+": lambda a, b: a + b,
                    "-": lambda a, b: a - b,
                    "*": lambda a, b: a * b,
                    "/": lambda a, b: a / b if numeric else a // b,
                    "%": lambda a, b: a % b,
                    "<": lambda a, b: a < b,
                    "<=": lambda a, b: a <= b,
                    ">": lambda a, b: a > b,
                    ">=": lambda a, b: a >= b,
                    "==": lambda a, b: a == b,
                    "!=": lambda a, b: a != b,
                    "and": lambda a, b: bool(a) and bool(b),
                    "or": lambda a, b: bool(a) or bool(b),
                }[e.op](lhs.val, rhs.val)
            except ZeroDivisionError:
                return e
            typ = bool_t if isinstance(val, bool) else e.typ
            return N.Const(val, typ)
        # identity elements for numeric arithmetic
        if e.op == "*":
            if isinstance(lhs, N.Const) and lhs.val == 1:
                return rhs
            if isinstance(rhs, N.Const) and rhs.val == 1:
                return lhs
            if (isinstance(lhs, N.Const) and lhs.val == 0) or (isinstance(rhs, N.Const) and rhs.val == 0):
                return N.Const(0, e.typ)
        if e.op == "+":
            if isinstance(lhs, N.Const) and lhs.val == 0:
                return rhs
            if isinstance(rhs, N.Const) and rhs.val == 0:
                return lhs
        if e.op == "-" and isinstance(rhs, N.Const) and rhs.val == 0:
            return lhs
        # comparison simplification over index expressions
        if e.op in ("<", "<=", ">", ">=", "==", "!=") and not numeric:
            verdict = prove(e, env)
            if verdict is True:
                return N.Const(True, bool_t)
            neg = _negate_cmp(e)
            if neg is not None and prove(neg, env) is True:
                return N.Const(False, bool_t)
        return e
    return e


def _is_numeric_value_type(e: N.BinOp) -> bool:
    typ = getattr(e, "typ", None)
    return bool(getattr(typ, "is_numeric", False))


def _negate_cmp(e: N.BinOp) -> Optional[N.BinOp]:
    table = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
    if e.op not in table:
        return None
    return N.BinOp(table[e.op], e.lhs, e.rhs, bool_t)


# ---------------------------------------------------------------------------
# Proving
# ---------------------------------------------------------------------------


def exprs_equal(a: N.Expr, b: N.Expr, env: Optional[FactEnv] = None) -> bool:
    """Can we prove that two index expressions are equal?"""
    diff = linearize(a) - linearize(b)
    if diff.is_zero():
        return True
    env = env or FactEnv()
    lo, hi = env.interval(diff)
    return lo is not None and hi is not None and lo == 0 and hi == 0


def prove(cond: N.Expr, env: Optional[FactEnv] = None) -> Optional[bool]:
    """Try to prove a boolean condition.  Returns True if provable, False if
    provably false, and None if unknown."""
    env = env or FactEnv()
    if isinstance(cond, N.Const):
        return bool(cond.val)
    if not isinstance(cond, N.BinOp):
        return None
    if cond.op == "and":
        a, b = prove(cond.lhs, env), prove(cond.rhs, env)
        if a is True and b is True:
            return True
        if a is False or b is False:
            return False
        return None
    if cond.op == "or":
        a, b = prove(cond.lhs, env), prove(cond.rhs, env)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None
    if cond.op not in ("<", "<=", ">", ">=", "==", "!="):
        return None
    diff = linearize(cond.lhs) - linearize(cond.rhs)
    lo, hi = env.interval(diff)

    def decide(true_if, false_if):
        if true_if:
            return True
        if false_if:
            return False
        return None

    if cond.op == "<":
        return decide(hi is not None and hi < 0, lo is not None and lo >= 0)
    if cond.op == "<=":
        return decide(hi is not None and hi <= 0, lo is not None and lo > 0)
    if cond.op == ">":
        return decide(lo is not None and lo > 0, hi is not None and hi <= 0)
    if cond.op == ">=":
        return decide(lo is not None and lo >= 0, hi is not None and hi < 0)
    if cond.op == "==":
        if diff.is_zero():
            return True
        if (lo is not None and lo > 0) or (hi is not None and hi < 0):
            return False
        if lo is not None and hi is not None and lo == 0 and hi == 0:
            return True
        # divisibility-style equalities, e.g. M % 8 == 0
        if isinstance(cond.lhs, N.BinOp) and cond.lhs.op == "%" and const_value(cond.rhs) == 0:
            c = const_value(cond.lhs.rhs)
            if c is not None and env.divisible(cond.lhs.lhs, c):
                return True
        return None
    if cond.op == "!=":
        if (lo is not None and lo > 0) or (hi is not None and hi < 0):
            return True
        if diff.is_zero():
            return False
        return None
    return None


def prove_divisible(e: N.Expr, c: int, env: Optional[FactEnv] = None) -> bool:
    env = env or FactEnv()
    return env.divisible(e, c)


# ---------------------------------------------------------------------------
# Whole-procedure simplification
# ---------------------------------------------------------------------------


def simplify_block(stmts: List[N.Stmt], env: FactEnv) -> List[N.Stmt]:
    """Simplify a block under ``env``.  Statements that were already simple
    come back as the same objects (and an already-simple block as the same
    list), so the result shares them with the input."""

    def simp(e):
        return _simplify_window(e, env) if isinstance(e, N.WindowExpr) else simplify_expr(e, env)

    def rebuilt(s, **fields):
        changes = {k: v for k, v in fields.items() if not same_tree(v, getattr(s, k))}
        return with_fields(s, **changes) if changes else s

    out: List[N.Stmt] = []
    for s in stmts:
        if isinstance(s, (N.Assign, N.Reduce)):
            out.append(rebuilt(s, idx=[simp(i) for i in s.idx], rhs=simp(s.rhs)))
        elif isinstance(s, N.For):
            lo, hi = simp(s.lo), simp(s.hi)
            body = simplify_block(s.body, env.with_loop(s.iter, lo, hi))
            lo_c, hi_c = const_value(lo), const_value(hi)
            if lo_c is not None and hi_c is not None and hi_c <= lo_c:
                continue  # trivially empty loop
            out.append(rebuilt(s, lo=lo, hi=hi, body=body))
        elif isinstance(s, N.If):
            cond = simp(s.cond)
            verdict = prove(cond, env) if not isinstance(cond, N.Const) else bool(cond.val)
            if verdict is False:
                out.extend(simplify_block(s.orelse, env))
                continue
            body_env = env.copy()
            body_env.add_predicate(cond)
            body = simplify_block(s.body, body_env)
            if verdict is True:
                out.extend(body)
                continue
            out.append(rebuilt(s, cond=cond, body=body, orelse=simplify_block(s.orelse, env)))
        elif isinstance(s, N.Call):
            out.append(rebuilt(s, args=[simp(a) for a in s.args]))
        elif isinstance(s, (N.WriteConfig, N.WindowStmt)):
            out.append(rebuilt(s, rhs=simp(s.rhs)))
        elif isinstance(s, N.Alloc) and isinstance(s.typ, TensorType):
            typ = TensorType(s.typ.base, [simp(e) for e in s.typ.shape], s.typ.is_window)
            out.append(rebuilt(s, typ=typ))
        else:
            out.append(s)
    unchanged = len(out) == len(stmts) and all(a is b for a, b in zip(out, stmts))
    return stmts if unchanged else out


def _simplify_window(w: N.WindowExpr, env: FactEnv) -> N.WindowExpr:
    new_idx = []
    for d in w.idx:
        if isinstance(d, N.Interval):
            new_idx.append(N.Interval(simplify_expr(d.lo, env), simplify_expr(d.hi, env)))
        else:
            new_idx.append(N.Point(simplify_expr(d.pt, env)))
    return w if same_tree(new_idx, w.idx) else with_fields(w, idx=new_idx)


def simplify_proc(root: N.ProcDef) -> N.ProcDef:
    """``root`` with every statement simplified under the procedure's own
    assertions and the enclosing loop bounds and guards; ``root`` itself when
    nothing changed."""
    body = simplify_block(root.body, FactEnv.from_proc(root))
    return root if body is root.body else with_fields(root, body=body)
