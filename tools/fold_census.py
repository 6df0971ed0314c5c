#!/usr/bin/env python3
"""Census of what the NumPy lowerer asked the prover and what it emitted,
over the fold-parity catalogue (``tests/interp/test_fold_parity.py``):
non-negativity queries / unproven, ``_oob(`` guards, generated lines, and
the ``# not folded:`` reasons by count.

    python tools/fold_census.py
"""
from __future__ import annotations

import collections
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests" / "interp")]

import repro.interp.compile as C  # noqa: E402
from test_fold_parity import CASES  # noqa: E402

asked = collections.Counter()
query = C._never_negative


def counted(env, lf):
    proven = query(env, lf)
    asked[proven] += 1
    return proven


C._never_negative = counted
guards = lines = 0
reasons = collections.Counter()
for key in sorted(CASES):
    C.clear_compile_cache()
    src = C.compile_proc(CASES[key](), threads=2).source
    guards += src.count("_oob(")
    lines += len(src.splitlines())
    reasons.update(re.findall(r"# not folded: (.*)", src))
print(f"queries {sum(asked.values())}  unproven {asked[False]}  _oob( guards {guards}  generated lines {lines}")
for reason, n in reasons.most_common():
    print(f"{n:5d}  {reason}")
