"""Lines-of-code counting.

Figure 6c compares library / Exo / Exo 2 schedule sizes, Figure 9a breaks down
the scheduling library and kernel code, and Figure 13c counts blur/unsharp
schedules.  We count non-blank, non-comment source lines, the same convention
the paper uses.
"""

from __future__ import annotations

import inspect
import textwrap

__all__ = ["count_loc", "function_loc", "generated_c_loc"]


def count_loc(source: str) -> int:
    """Count non-blank, non-comment lines in a source string.

    Docstrings count as comments, including multi-line docstrings whose
    closing triple-quote ends a text line rather than standing alone — the
    convention every schedule in this repo uses.
    """
    n = 0
    in_doc = None  # the delimiter of the docstring we are inside, if any
    for raw in source.splitlines():
        line = raw.strip()
        if in_doc is not None:
            if in_doc in line:
                rest = line.split(in_doc, 1)[1].strip()
                in_doc = None
                # code after the closing quotes on the same line still counts
                if rest and not rest.startswith("#"):
                    n += 1
            continue
        if not line:
            continue
        if line.startswith('"""') or line.startswith("'''"):
            quote = line[:3]
            # docstring closed on the same line it opened
            if line.count(quote) >= 2 and len(line) > 3:
                continue
            in_doc = quote
            continue
        if line.startswith("#"):
            continue
        n += 1
    return n


def function_loc(fn) -> int:
    """Count the source lines of a Python function (a schedule or library op)."""
    src = textwrap.dedent(inspect.getsource(fn))
    return count_loc(src)


def generated_c_loc(procedures) -> int:
    """Lines of C generated for the given procedures."""
    from ..backend.codegen import compile_to_c

    return count_loc(compile_to_c(procedures))
