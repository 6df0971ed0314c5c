"""Backend consistency checks (Appendix A.7).

:func:`backend_check` is an audit a caller may run on a scheduled procedure;
neither emitter calls it.  It checks that every tensor a call passes lives in
a memory space the callee's parameter accepts, and that every ``par`` loop
passes :func:`~repro.analysis.effects.par_write_classes`, the rule both
engines lower from.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.effects import ParUnproven, par_write_classes
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

    dram_like = (MemoryKind.DRAM, MemoryKind.STACK, MemoryKind.STATIC, None)

    for n, _ in walk(root):
        if isinstance(n, N.Call):
            cdef = n.proc._root
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
            try:
                par_write_classes(n)
            except ParUnproven as exc:
                raise BackendError(f"parallel loop {n.iter} carries a dependency between iterations: {exc}") from None
