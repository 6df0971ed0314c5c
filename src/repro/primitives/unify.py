"""Instruction replacement by unification (Appendix A.4's ``replace``).

``replace(p, block, instr)`` unifies a block of object code with the body of
an ``@instr`` procedure, solving for the instruction's arguments, and replaces
the block with a call to the instruction.  This is the mechanism by which the
user-level ``vectorize`` library and the GEMM/Gemmini libraries map staged
loops onto hardware intrinsics.

The unifier supports the patterns produced by the scheduling libraries in this
repository:

* loop iterators of the instruction body map one-to-one onto loop iterators of
  the target block,
* control (``size``/``index``) arguments bind to index expressions,
* scalar numeric arguments bind to arbitrary value expressions,
* tensor/window arguments bind to a buffer plus per-dimension offsets; the
  instruction's dimensions correspond to the *trailing* dimensions of the
  caller's buffer access (leading dimensions become point offsets).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.linear import exprs_equal, linearize, simplify_expr
from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import (
    declaration,
    map_exprs,
    stmt_list_field_paths,
    structurally_equal,
    used_syms_expr,
)
from ..ir.edit import EditSession
from ..ir.syms import Sym
from ..ir.types import TensorType, index_t, int_t
from ._base import block_coords, proc_fact_env, scheduling_primitive, to_block_cursor

__all__ = ["replace", "replace_all", "replace_all_stmts", "UnificationError"]


class UnificationError(SchedulingError):
    """The block could not be unified with the instruction body."""


class _Unifier:
    def __init__(self, instr_proc, env, caller_root):
        self.instr = instr_proc
        self.idef = instr_proc._root
        self.env = env
        self.caller_root = caller_root
        self.arg_syms = {a.name for a in self.idef.args}
        self.arg_info = {a.name: a for a in self.idef.args}
        # bindings
        self.expr_bind: Dict[Sym, N.Expr] = {}
        self.buf_bind: Dict[Sym, Sym] = {}
        self.buf_points: Dict[Sym, List[N.Expr]] = {}
        self.buf_offsets: Dict[Sym, List[N.Expr]] = {}
        self.iter_map: Dict[Sym, Sym] = {}

    # -- helpers ------------------------------------------------------------------

    def fail(self, msg: str):
        raise UnificationError(msg)

    def _is_tensor_arg(self, sym: Sym) -> bool:
        a = self.arg_info.get(sym)
        return a is not None and isinstance(a.typ, TensorType)

    def _subst_instr_expr(self, e: N.Expr) -> N.Expr:
        """Substitute iterator mappings and control-arg bindings into an
        instruction-side index expression."""
        def repl(x):
            if isinstance(x, N.Read) and not x.idx:
                if x.name in self.iter_map:
                    return N.Read(self.iter_map[x.name], [], index_t)
                if x.name in self.expr_bind:
                    return self.expr_bind[x.name]
            return x

        return map_exprs(e, repl)

    def bind_expr_arg(self, sym: Sym, caller_e: N.Expr):
        # a scalar/control argument binding may not capture the loop iterators
        # that the unification mapped — the call site sits outside those loops
        if used_syms_expr(caller_e) & set(self.iter_map.values()):
            self.fail(f"argument {sym.name} would capture a loop iterator")
        if sym in self.expr_bind:
            if not (
                structurally_equal(self.expr_bind[sym], caller_e)
                or exprs_equal(self.expr_bind[sym], caller_e, self.env)
            ):
                self.fail(f"inconsistent binding for argument {sym.name}")
        else:
            self.expr_bind[sym] = caller_e

    def bind_buffer_access(self, arg_sym: Sym, instr_idx: List[N.Expr], caller_buf: Sym, caller_idx: List[N.Expr]):
        """Bind a tensor argument from a pair of element accesses."""
        arg_mem = self.arg_info[arg_sym].mem
        caller_mem = getattr(declaration(self.caller_root, caller_buf), "mem", None)
        if arg_mem is not None and caller_mem is not None:
            from ..ir.memories import MemoryKind

            dram_like = (MemoryKind.DRAM, MemoryKind.STACK, MemoryKind.STATIC)
            if arg_mem.kind in dram_like:
                if caller_mem.kind not in dram_like:
                    self.fail(
                        f"memory mismatch: {arg_sym.name} expects DRAM, got {caller_mem.name}"
                    )
            elif arg_mem.kind != caller_mem.kind:
                self.fail(
                    f"memory mismatch: {arg_sym.name} expects {arg_mem.name}, got {caller_mem.name}"
                )
        n = len(instr_idx)
        m = len(caller_idx)
        if m < n:
            self.fail(f"access to {caller_buf.name} has lower rank than instruction argument {arg_sym.name}")
        lead = caller_idx[: m - n]
        trail = caller_idx[m - n :]
        # leading dims must be independent of mapped iterators
        mapped_iters = set(self.iter_map.values())
        for e in lead:
            if used_syms_expr(e) & mapped_iters:
                self.fail("leading buffer dimensions depend on the matched loop iterators")
        offsets = []
        for ie, ce in zip(instr_idx, trail):
            instr_sub = self._subst_instr_expr(ie)
            off = simplify_expr(N.BinOp("-", ce, instr_sub), self.env)
            if used_syms_expr(off) & mapped_iters:
                self.fail("window offset depends on the matched loop iterators")
            offsets.append(off)
        if arg_sym in self.buf_bind:
            if self.buf_bind[arg_sym] is not caller_buf:
                self.fail(f"argument {arg_sym.name} bound to two different buffers")
            for a, b in zip(self.buf_points[arg_sym], lead):
                if not exprs_equal(a, b, self.env):
                    self.fail(f"inconsistent point offsets for argument {arg_sym.name}")
            for a, b in zip(self.buf_offsets[arg_sym], offsets):
                if not exprs_equal(a, b, self.env):
                    self.fail(f"inconsistent window offsets for argument {arg_sym.name}")
        else:
            self.buf_bind[arg_sym] = caller_buf
            self.buf_points[arg_sym] = lead
            self.buf_offsets[arg_sym] = offsets

    # -- expression unification ------------------------------------------------------

    def unify_expr(self, ie: N.Expr, ce: N.Expr):
        # instruction-side reads of arguments / iterators
        if isinstance(ie, N.Read) and ie.name in self.arg_syms:
            if not ie.idx:
                if self._is_tensor_arg(ie.name):
                    self.fail(f"tensor argument {ie.name.name} read without indices")
                self.bind_expr_arg(ie.name, ce)
                return
            # indexed read of a tensor argument
            if not isinstance(ce, N.Read) or not ce.idx:
                self.fail("expected a buffer read in the target block")
            self.bind_buffer_access(ie.name, list(ie.idx), ce.name, list(ce.idx))
            return
        if isinstance(ie, N.Read) and ie.name in self.iter_map:
            if isinstance(ce, N.Read) and not ce.idx and ce.name is self.iter_map[ie.name]:
                return
            if exprs_equal(self._subst_instr_expr(ie), ce, self.env):
                return
            self.fail("loop iterator mismatch")
        if isinstance(ie, N.Const):
            if isinstance(ce, N.Const):
                if ie.val == ce.val:
                    return
            elif exprs_equal(ie, ce, self.env):
                return
            self.fail(f"constant mismatch: {ie.val!r}")
        if isinstance(ie, N.BinOp):
            if not isinstance(ce, N.BinOp) or ce.op != ie.op:
                self.fail(f"operator mismatch: expected {ie.op!r}")
            self.unify_expr(ie.lhs, ce.lhs)
            self.unify_expr(ie.rhs, ce.rhs)
            return
        if isinstance(ie, N.USub):
            if not isinstance(ce, N.USub):
                self.fail("unary-minus mismatch")
            self.unify_expr(ie.arg, ce.arg)
            return
        if isinstance(ie, N.Extern):
            if not isinstance(ce, N.Extern) or ce.fname != ie.fname or len(ce.args) != len(ie.args):
                self.fail(f"extern call mismatch: expected {ie.fname}")
            for a, b in zip(ie.args, ce.args):
                self.unify_expr(a, b)
            return
        if isinstance(ie, N.ReadConfig):
            if not isinstance(ce, N.ReadConfig) or ce.config is not ie.config or ce.field_name != ie.field_name:
                self.fail("configuration read mismatch")
            return
        # what is left is a window or a stride of an argument, which names
        # the instruction's buffer and so never equals the caller's
        self.fail("expression mismatch")

    # -- statement unification --------------------------------------------------------

    def unify_stmt(self, istmt: N.Stmt, cstmt: N.Stmt):
        if isinstance(istmt, N.For):
            if not isinstance(cstmt, N.For):
                self.fail("expected a loop")
            self.iter_map[istmt.iter] = cstmt.iter
            self.unify_expr(istmt.lo, cstmt.lo)
            # the loop bound may bind a control argument
            if isinstance(istmt.hi, N.Read) and istmt.hi.name in self.arg_syms and not istmt.hi.idx:
                self.bind_expr_arg(istmt.hi.name, cstmt.hi)
            else:
                self.unify_expr(istmt.hi, cstmt.hi)
            self.unify_block(istmt.body, cstmt.body)
            return
        if isinstance(istmt, N.If):
            if not isinstance(cstmt, N.If):
                self.fail("expected an if statement")
            self.unify_expr(istmt.cond, cstmt.cond)
            self.unify_block(istmt.body, cstmt.body)
            self.unify_block(istmt.orelse, cstmt.orelse)
            return
        if isinstance(istmt, (N.Assign, N.Reduce)):
            if not isinstance(cstmt, type(istmt)):
                self.fail("assignment/reduction kind mismatch")
            # the right-hand side first: an operator that differs is found
            # before the written index is simplified
            self.unify_expr(istmt.rhs, cstmt.rhs)
            # an instruction writes only its arguments: an allocation in its
            # body is refused before anything can write it
            if self._is_tensor_arg(istmt.name):
                self.bind_buffer_access(istmt.name, list(istmt.idx), cstmt.name, list(cstmt.idx))
            else:
                # writing a scalar argument: the target must be a scalar buffer
                if cstmt.idx:
                    self.fail("scalar output argument bound to an indexed access")
                self.bind_expr_arg(istmt.name, N.Read(cstmt.name, [], declaration(self.caller_root, cstmt.name).typ))
            return
        if isinstance(istmt, N.Pass):
            if not isinstance(cstmt, N.Pass):
                self.fail("expected pass")
            return
        if isinstance(istmt, N.Call):
            if not isinstance(cstmt, N.Call) or cstmt.proc is not istmt.proc:
                self.fail("call mismatch")
            for a, b in zip(istmt.args, cstmt.args):
                self.unify_expr(a, b)
            return
        if isinstance(istmt, N.WriteConfig):
            if (
                not isinstance(cstmt, N.WriteConfig)
                or cstmt.config is not istmt.config
                or cstmt.field_name != istmt.field_name
            ):
                self.fail("configuration write mismatch")
            self.unify_expr(istmt.rhs, cstmt.rhs)
            return
        if isinstance(istmt, N.Alloc):
            self.fail("instructions with internal allocations cannot be unified")
        self.fail(f"unsupported instruction statement {type(istmt).__name__}")

    def unify_block(self, istmts: Sequence[N.Stmt], cstmts: Sequence[N.Stmt]):
        if len(istmts) != len(cstmts):
            self.fail("statement count mismatch")
        for a, b in zip(istmts, cstmts):
            self.unify_stmt(a, b)

    # -- call construction ------------------------------------------------------------

    def build_call(self) -> N.Call:
        args: List[N.Expr] = []
        for a in self.idef.args:
            if isinstance(a.typ, TensorType):
                if a.name not in self.buf_bind:
                    self.fail(f"tensor argument {a.name.name} was never bound")
                buf = self.buf_bind[a.name]
                points = self.buf_points[a.name]
                offsets = self.buf_offsets[a.name]
                widx: List[object] = [N.Point(p) for p in points]
                for off, dim_sz in zip(offsets, a.typ.shape):
                    size = self._subst_instr_expr(dim_sz)
                    hi = simplify_expr(N.BinOp("+", off, size), self.env)
                    widx.append(N.Interval(off, hi))
                wtyp = TensorType(a.typ.base, a.typ.shape, True)
                args.append(N.WindowExpr(buf, widx, wtyp))
            else:
                if a.name not in self.expr_bind:
                    self.fail(f"argument {a.name.name} was never bound")
                args.append(self.expr_bind[a.name])
        return N.Call(self.instr, args)


def _skeleton(s: N.Stmt):
    """What unification compares before it asks the prover about a single
    bound: the statement's type and, for a loop or an ``if``, the skeletons of
    the statement lists it owns (memoised on the node).  There are no ``Stmt``
    subclasses, so ``unify_block`` refuses every block whose skeleton key is
    not the instruction's."""
    fields = N.LIST_FIELDS.get(type(s))
    if fields is None:
        return type(s)
    return N.memo(s, "_skeleton", lambda s: (type(s), *(_skeleton_key(getattr(s, f)) for f in fields)))


def _skeleton_key(stmts: Sequence[N.Stmt]) -> tuple:
    """A block's skeleton key, one skeleton per statement (so its length is
    the block's)."""
    return tuple(map(_skeleton, stmts))


def _try_unify(proc, stmts: Sequence[N.Stmt], instr_proc, env) -> Optional[N.Call]:
    """The call that replaces ``stmts``, a block with the instruction's
    skeleton key, or None when the two do not unify."""
    uni = _Unifier(instr_proc, env, caller_root=proc._root)
    try:
        uni.unify_block(instr_proc._root.body, list(stmts))
        return uni.build_call()
    except UnificationError:
        return None


@scheduling_primitive
def replace(proc, block, instr_proc):
    """Replace a block of object code with a call to an equivalent procedure,
    unifying the block against the callee's body.  As in Exo, the callee may
    be an ``@instr`` or any plain procedure whose body unifies."""
    block = to_block_cursor(proc, block)
    stmts = block._stmts()
    ibody = instr_proc._root.body
    if len(stmts) > len(ibody):
        stmts = stmts[: len(ibody)]
    call = None
    if _skeleton_key(stmts) == _skeleton_key(ibody):
        call = _try_unify(proc, stmts, instr_proc, proc_fact_env(proc, block._owner_path))
    if call is None:
        raise SchedulingError(
            f"replace: could not unify the block with instruction {instr_proc.name()!r}"
        )
    owner, attr, lo, hi = block_coords(block)
    n_old = len(ibody)
    session = EditSession(proc)
    session.replace((owner, attr, lo, lo + n_old), [call], lambda off, rest: (0, ()))
    return session.finish()


def _window_index(root, lengths) -> Dict[tuple, List[Tuple[Tuple, str, List[N.Stmt], int]]]:
    """Every statement window of ``root`` whose length is in ``lengths``, by
    skeleton key: ``key -> [(owner_path, attr, stmts, start), ...]``, the
    statement lists in pre-order and each list's windows by start."""
    index: Dict[tuple, list] = {}
    for owner_path, attr, stmts in stmt_list_field_paths(root):
        keys = _skeleton_key(stmts)
        for n in lengths:
            for start in range(len(stmts) - n + 1):
                index.setdefault(keys[start : start + n], []).append((owner_path, attr, stmts, start))
    return index


@scheduling_primitive
def replace_all(proc, instrs):
    """Replace every block that unifies with one of ``instrs`` (a single
    instruction or a list) with the corresponding instruction call; where two
    instructions unify with overlapping blocks, the earlier one in ``instrs``
    wins, and of one instruction's overlapping matches the first in program
    order.

    The procedure's statement windows are indexed by skeleton key once per
    version (O(windows), for the lengths the instructions have), and each
    instruction is unified only with the windows under its own key; all of
    one instruction's matches become one edit session, after which the index
    is rebuilt.  So an instruction whose skeleton matches no window costs a
    dictionary lookup, not a sweep.  Sweeps repeat until one changes nothing
    (a call just placed can complete the block of an instruction whose body
    contains calls); windows that failed to unify are remembered by
    coordinates and statements, so a repeated sweep only re-examines what an
    edit rebuilt (nodes are immutable and an edit shares every subtree it did
    not touch, so a window whose statements are the same objects is the same
    window)."""
    if not isinstance(instrs, (list, tuple)):
        instrs = [instrs]
    lengths = {len(instr_proc._root.body) for instr_proc in instrs}
    p = proc
    # (instr id, owner_path, attr, start) -> the window that failed there
    failed: Dict[Tuple[int, Tuple, str, int], List[N.Stmt]] = {}
    changed = True
    while changed:
        changed = False
        index = None
        for instr_proc in instrs:
            if index is None:
                index = _window_index(p._root, lengths)
            ibody = instr_proc._root.body
            ilen = len(ibody)
            found = []  # (owner_path, attr, start, call), in program order
            for owner_path, attr, stmts, start in index.get(_skeleton_key(ibody), ()):
                # a window overlaps at most the match just before it: one
                # under a matched block has a smaller skeleton than the block
                if found and found[-1][:2] == (owner_path, attr) and start < found[-1][2] + ilen:
                    continue
                window = stmts[start : start + ilen]
                key = (id(instr_proc), owner_path, attr, start)
                seen = failed.get(key)
                call = None
                if (seen is None or any(a is not b for a, b in zip(seen, window))) and not any(
                    isinstance(s, N.Call) and s.proc is instr_proc for s in window
                ):
                    call = _try_unify(p, window, instr_proc, proc_fact_env(p, owner_path))
                if call is None:
                    failed[key] = window
                else:
                    found.append((owner_path, attr, start, call))
            if found:
                session = EditSession(p)
                # last first: a replacement shortens its list, which moves
                # only what comes after it
                for owner_path, attr, start, call in reversed(found):
                    session.replace(
                        (owner_path, attr, start, start + ilen), [call], lambda off, rest: (0, ())
                    )
                p = session.finish()
                index = None
                changed = True
    return p


def replace_all_stmts(proc, instrs):
    """Alias of :func:`replace_all` under the name used in Section 6.1.1."""
    return replace_all(proc, instrs)
