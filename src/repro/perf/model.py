"""Performance model for scheduled object code.

The paper evaluates on real hardware (AVX2/AVX-512 Xeons and Gemmini on
FireSim).  Offline, we substitute a deterministic cycle-cost model that walks
the scheduled object code with concrete sizes and charges:

* scalar arithmetic, address generation and loop overhead per iteration,
* one issue slot per vector instruction call (``@instr`` cost),
* DRAM traffic per byte moved (the roofline term that dominates at large
  sizes),
* a heavy, fence-like cost per configuration-register write (what makes
  Gemmini configuration hoisting matter),
* a fixed per-call overhead (what generic BLAS libraries pay much more of).

Absolute numbers are not meaningful; ratios between schedules (and against the
analytic library baselines of :mod:`repro.perf.baselines`) reproduce the
paper's comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir import nodes as N
from ..ir.externs import extern_by_name
from ..ir.memories import MemoryKind
from ..ir.types import TensorType

__all__ = ["MachineSpec", "CostReport", "CostModel", "AVX2_SPEC", "AVX512_SPEC", "GEMMINI_SPEC"]


@dataclass
class MachineSpec:
    """Calibration constants of a modelled machine."""

    name: str
    freq_ghz: float = 3.2
    dram_bytes_per_cycle: float = 8.0
    scratch_bytes_per_cycle: float = 64.0
    scalar_op_cost: float = 1.0
    vector_issue_cost: float = 1.0
    loop_overhead: float = 1.0
    config_write_cost: float = 40.0
    call_overhead: float = 30.0


AVX2_SPEC = MachineSpec("AVX2", freq_ghz=3.2, dram_bytes_per_cycle=8.0)
AVX512_SPEC = MachineSpec("AVX512", freq_ghz=3.2, dram_bytes_per_cycle=12.0)
GEMMINI_SPEC = MachineSpec(
    "Gemmini", freq_ghz=1.0, dram_bytes_per_cycle=16.0, config_write_cost=80.0, call_overhead=100.0
)


@dataclass
class CostReport:
    """Accumulated costs of one execution of a procedure."""

    compute_cycles: float = 0.0
    dram_bytes: float = 0.0
    scratch_bytes: float = 0.0
    config_writes: int = 0
    instr_calls: int = 0
    scalar_ops: float = 0.0

    def merge_scaled(self, other: "CostReport", factor: float) -> None:
        self.compute_cycles += other.compute_cycles * factor
        self.dram_bytes += other.dram_bytes * factor
        self.scratch_bytes += other.scratch_bytes * factor
        self.config_writes += int(other.config_writes * factor)
        self.instr_calls += int(other.instr_calls * factor)
        self.scalar_ops += other.scalar_ops * factor


class CostModel:
    """Walks object code with concrete sizes and produces a :class:`CostReport`."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec

    # -- public API ------------------------------------------------------------

    def report(self, procedure, size_env: Dict[str, int]) -> CostReport:
        root = procedure._root if hasattr(procedure, "_root") else procedure
        env: Dict[object, float] = {}
        mem_env: Dict[object, str] = {}
        for a in root.args:
            if a.name.name in size_env:
                env[a.name] = size_env[a.name.name]
            if isinstance(a.typ, TensorType):
                mem_env[a.name] = (a.mem.kind if a.mem else MemoryKind.DRAM, a.typ.base.bits // 8)
        rep = CostReport()
        self._stmts_cost(root.body, env, mem_env, rep)
        return rep

    def runtime_cycles(self, procedure, size_env: Dict[str, int]) -> float:
        rep = self.report(procedure, size_env)
        mem_cycles = rep.dram_bytes / self.spec.dram_bytes_per_cycle
        mem_cycles += rep.scratch_bytes / self.spec.scratch_bytes_per_cycle
        return self.spec.call_overhead + max(rep.compute_cycles, mem_cycles)

    # -- expression evaluation ---------------------------------------------------

    def _eval(self, e: N.Expr, env) -> Optional[float]:
        if isinstance(e, N.Const):
            return float(e.val) if not isinstance(e.val, bool) else float(bool(e.val))
        if isinstance(e, N.Read) and not e.idx:
            return env.get(e.name)
        if isinstance(e, N.USub):
            v = self._eval(e.arg, env)
            return None if v is None else -v
        if isinstance(e, N.BinOp):
            a, b = self._eval(e.lhs, env), self._eval(e.rhs, env)
            if a is None or b is None:
                return None
            try:
                if e.op == "+":
                    return a + b
                if e.op == "-":
                    return a - b
                if e.op == "*":
                    return a * b
                if e.op == "/":
                    return float(int(a) // int(b)) if b else None
                if e.op == "%":
                    return float(int(a) % int(b)) if b else None
                if e.op in ("<", "<=", ">", ">=", "==", "!="):
                    return float({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "==": a == b, "!=": a != b}[e.op])
            except (ValueError, ZeroDivisionError):
                return None
        return None

    def _expr_cost(self, e: N.Expr, env, mem_env, rep: CostReport) -> None:
        """Charge for evaluating a value expression (reads + arithmetic)."""
        if isinstance(e, N.Read):
            if e.idx:
                kind, width = mem_env.get(e.name, (MemoryKind.DRAM, 4))
                self._charge_access(kind, width, 1, rep)
                rep.compute_cycles += 0.5 * self.spec.scalar_op_cost  # address generation
            return
        if isinstance(e, N.BinOp):
            rep.compute_cycles += self.spec.scalar_op_cost
            rep.scalar_ops += 1
            self._expr_cost(e.lhs, env, mem_env, rep)
            self._expr_cost(e.rhs, env, mem_env, rep)
            return
        if isinstance(e, N.USub):
            self._expr_cost(e.arg, env, mem_env, rep)
            return
        if isinstance(e, N.Extern):
            rep.compute_cycles += extern_by_name(e.fname).cost
            for a in e.args:
                self._expr_cost(a, env, mem_env, rep)
            return
        if isinstance(e, N.ReadConfig):
            rep.compute_cycles += 0.5
            return

    def _charge_access(self, kind: str, width: int, count: float, rep: CostReport) -> None:
        if kind in (MemoryKind.DRAM, MemoryKind.STACK, MemoryKind.STATIC):
            rep.dram_bytes += width * count
        elif kind in (MemoryKind.SCRATCHPAD, MemoryKind.ACCUMULATOR):
            rep.scratch_bytes += width * count
        # vector registers are free

    # -- statements ----------------------------------------------------------------

    def _stmts_cost(self, stmts, env, mem_env, rep: CostReport) -> None:
        for s in stmts:
            self._stmt_cost(s, env, mem_env, rep)

    def _stmt_cost(self, s: N.Stmt, env, mem_env, rep: CostReport) -> None:
        spec = self.spec
        if isinstance(s, (N.Assign, N.Reduce)):
            kind, width = mem_env.get(s.name, (MemoryKind.DRAM, 4))
            self._charge_access(kind, width, 1, rep)
            rep.compute_cycles += spec.scalar_op_cost
            rep.scalar_ops += 1
            self._expr_cost(s.rhs, env, mem_env, rep)
            return
        if isinstance(s, N.Alloc):
            if isinstance(s.typ, TensorType):
                mem_env[s.name] = (s.mem.kind, s.typ.base.bits // 8)
            else:
                mem_env[s.name] = (s.mem.kind, s.typ.bits // 8)
            return
        if isinstance(s, N.For):
            lo = self._eval(s.lo, env) or 0.0
            hi = self._eval(s.hi, env)
            if hi is None:
                hi = lo + 1.0  # unknown bound: assume a single iteration
            trips = max(0.0, hi - lo)
            if trips == 0:
                return
            body_rep = CostReport()
            body_env = dict(env)
            body_env[s.iter] = (lo + hi - 1) / 2.0  # average iteration (triangular loops)
            self._stmts_cost(s.body, body_env, mem_env, body_rep)
            rep.merge_scaled(body_rep, trips)
            rep.compute_cycles += spec.loop_overhead * trips
            return
        if isinstance(s, N.If):
            cond = self._eval(s.cond, env)
            rep.compute_cycles += 1.0
            if cond is None:
                then_rep, else_rep = CostReport(), CostReport()
                self._stmts_cost(s.body, env, mem_env, then_rep)
                self._stmts_cost(s.orelse, env, mem_env, else_rep)
                rep.merge_scaled(then_rep, 0.5)
                rep.merge_scaled(else_rep, 0.5)
            elif cond:
                self._stmts_cost(s.body, env, mem_env, rep)
            else:
                self._stmts_cost(s.orelse, env, mem_env, rep)
            return
        if isinstance(s, N.Pass):
            return
        if isinstance(s, N.WindowStmt):
            rep.compute_cycles += 0.5
            mem_env[s.name] = mem_env.get(s.rhs.name, (MemoryKind.DRAM, 4))
            return
        if isinstance(s, N.WriteConfig):
            rep.config_writes += 1
            rep.compute_cycles += spec.config_write_cost
            return
        if isinstance(s, N.Call):
            self._call_cost(s, env, mem_env, rep)
            return

    def _call_cost(self, call: N.Call, env, mem_env, rep: CostReport) -> None:
        callee = call.proc
        cdef = callee._root if hasattr(callee, "_root") else callee
        if cdef.instr is not None:
            rep.instr_calls += 1
            rep.compute_cycles += cdef.instr.cost * self.spec.vector_issue_cost
            # charge DRAM traffic for window arguments living in DRAM-like memories
            for fn_arg, actual in zip(cdef.args, call.args):
                if isinstance(actual, N.WindowExpr):
                    kind, width = mem_env.get(actual.name, (MemoryKind.DRAM, 4))
                    count = 1.0
                    for d in actual.idx:
                        if isinstance(d, N.Interval):
                            lo = self._eval(d.lo, env)
                            hi = self._eval(d.hi, env)
                            if lo is not None and hi is not None:
                                count *= max(0.0, hi - lo)
                    self._charge_access(kind, width, count, rep)
            # configuration writes inside the instruction body
            from ..ir.build import walk

            for n, _ in walk(cdef):
                if isinstance(n, N.WriteConfig):
                    rep.config_writes += 1
                    rep.compute_cycles += self.spec.config_write_cost
            return
        # ordinary procedure call: recurse with bound size arguments
        sub_env: Dict[object, float] = {}
        sub_mem: Dict[object, tuple] = {}
        for fn_arg, actual in zip(cdef.args, call.args):
            if isinstance(fn_arg.typ, TensorType):
                if isinstance(actual, (N.Read, N.WindowExpr)):
                    sub_mem[fn_arg.name] = mem_env.get(actual.name, (MemoryKind.DRAM, fn_arg.typ.base.bits // 8))
            else:
                v = self._eval(actual, env)
                if v is not None:
                    sub_env[fn_arg.name] = v
        rep.compute_cycles += 2.0  # call overhead
        self._stmts_cost(cdef.body, sub_env, sub_mem, rep)
