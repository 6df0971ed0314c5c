#!/usr/bin/env python3
"""Print the ``src/`` line count the ROADMAP tracks: physical lines of every
``*.py`` file under ``src/`` (what ``find src -name '*.py' | xargs cat | wc -l``
gives), one total on the last line and the ten largest files above it.

    python tools/src_loc.py            # human-readable
    python tools/src_loc.py --total    # just the number (for scripts)
    python tools/src_loc.py --libs     # the scheduling libraries, Figure 9a's way
"""
from __future__ import annotations

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The schedule modules of the four scheduling libraries (kernels, references
#: and package ``__init__`` files are not scheduling code).
LIBS = (
    "stdlib/elevate.py",
    "stdlib/higher_order.py",
    "stdlib/inspection.py",
    "stdlib/tiling.py",
    "stdlib/vectorize.py",
    "blas/level1.py",
    "blas/level2.py",
    "blas/level3.py",
    "blas/schedules.py",
    "halide/library.py",
    "halide/schedules.py",
    "gemmini/schedule.py",
)


def count() -> dict:
    return {
        str(p.relative_to(SRC.parent)): len(p.read_bytes().splitlines())
        for p in sorted(SRC.rglob("*.py"))
    }


def libs() -> dict:
    """Code lines of each library module as Figure 9a counts them
    (``repro.metrics.count_loc``: no blank, comment or docstring line)."""
    from repro.metrics import count_loc

    return {m: count_loc((SRC / "repro" / m).read_text()) for m in LIBS}


if __name__ == "__main__":
    if sys.argv[1:] == ["--libs"]:
        sys.path.insert(0, str(SRC))
        counts = libs()
        for path, n in counts.items():
            print(f"{n:7d}  {path}")
    else:
        counts = count()
        if sys.argv[1:] != ["--total"]:
            for path, n in sorted(counts.items(), key=lambda kv: -kv[1])[:10]:
                print(f"{n:7d}  {path}")
            print(f"{len(counts):7d}  files")
    print(sum(counts.values()))
