"""Scoped primitive-rewrite and atomic-edit counting.

Figure 9b of the paper reports the number of primitive rewrites required to
optimise each kernel — a proxy for what a user of plain Exo would have had to
write by hand.  Every scheduling primitive reports itself to
:mod:`repro.obs`, and the :class:`~repro.ir.edit.EditSession` engine
additionally reports the number of *atomic edits* (Section 5.2) each
transformation decomposed into, so the metrics reflect the real edit traffic
rather than just call counts.  The process-wide totals are the ``sched.*``
counters there; :class:`count_rewrites` attributes rewrites to one kernel's
scheduling run.
"""

from __future__ import annotations

from contextlib import ContextDecorator
from typing import Dict, Optional

from .. import obs

__all__ = ["count_rewrites"]


class count_rewrites(obs.Watcher, ContextDecorator):
    """Context manager counting primitive rewrites (and the atomic edits they
    decompose into) performed inside it, by the thread that opened it."""

    def __init__(self, label: Optional[str] = None):
        self.label = label
        self.total = 0
        self.atomic_edits = 0
        self.by_primitive: Dict[str, int] = {}
        self.atomic_by_primitive: Dict[str, int] = {}

    def __enter__(self) -> "count_rewrites":
        self.__init__(self.label)
        return super().__enter__()

    def on_primitive_begin(self, name: str, depth: int, proc, args, kwargs) -> None:
        self.total += 1
        self.by_primitive[name] = self.by_primitive.get(name, 0) + 1

    def on_atomic_edits(self, primitive: str, n: int) -> None:
        self.atomic_edits += n
        self.atomic_by_primitive[primitive] = self.atomic_by_primitive.get(primitive, 0) + n
