#!/usr/bin/env python3
"""Print the ``src/`` line count the ROADMAP tracks: physical lines of every
``*.py`` file under ``src/`` (what ``find src -name '*.py' | xargs cat | wc -l``
gives), one total on the last line and the ten largest files above it.

    python tools/src_loc.py            # human-readable
    python tools/src_loc.py --total    # just the number (for scripts)
"""
from __future__ import annotations

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def count() -> dict:
    return {
        str(p.relative_to(SRC.parent)): len(p.read_bytes().splitlines())
        for p in sorted(SRC.rglob("*.py"))
    }


if __name__ == "__main__":
    counts = count()
    if sys.argv[1:] != ["--total"]:
        for path, n in sorted(counts.items(), key=lambda kv: -kv[1])[:10]:
            print(f"{n:7d}  {path}")
        print(f"{len(counts):7d}  files")
    print(sum(counts.values()))
