"""What each value type prints as at the REPL: one line per ``__repr__``."""
from __future__ import annotations

import re

import pytest

from repro import DRAM, new_config, proc_from_source
from repro.analysis.linear import linearize
from repro.api import ReplayCache, S
from repro.cursors import InvalidCursor
from repro.ir import nodes as N
from repro.ir.syms import Sym
from repro.ir.types import f32, index_t
from repro.lang import f32 as f32_placeholder
from repro.persist.journal import Journal
from repro.persist.lock import FileLock
from repro.tune import Space
from repro.tune.results import Leaderboard
from repro.tune.runner import Measurement
from repro.tune.tuner import TuneResult

P = proc_from_source(
    "def f(n: size, x: f32[n] @ DRAM):\n"
    "    for i in seq(0, n):\n"
    "        x[i] = 1.0\n"
)
X = Sym("x")


def _tuned():
    fast = Measurement({"t": 8}, time_s=0.002, repeats=3)
    return TuneResult(fast, Measurement({"t": 4}, status="error", error="refused"), [fast], key="k", machine="m")


REPRS = [
    ("Opaque atom in a LinearForm", lambda tmp: linearize(N.Read(X, [N.Const(0, index_t)], f32)), re.compile(r"LinearForm\(\{\(Opaque\(x\[0\]#\d+\),\): Fraction\(1, 1\)\}\)")),
    ("ReplayCache", lambda tmp: ReplayCache(), "<ReplayCache 0 entries, 0 hits / 0 misses>"),
    ("Schedule", lambda tmp: S.divide_loop("i", 4, ["io", "ii"]), "<Schedule divide_loop('i', 4, ['io', 'ii'])>"),
    ("the S namespace", lambda tmp: S, re.compile(r"<S: \d+ primitives, \d+ library ops>")),
    ("Trace", lambda tmp: S.simplify().apply_traced(P)[1], "<Trace of f: 1 applied, 0 warnings, 1 edits>"),
    ("InvalidCursor", lambda tmp: InvalidCursor(), "InvalidCursor()"),
    ("ExprCursor", lambda tmp: P.find_loop("i").hi(), "<ReadCursor: n>"),
    ("BlockCursor", lambda tmp: P.body(), "<BlockCursor of 1 stmts>"),
    ("GapCursor", lambda tmp: P.find_loop("i").after(), "<GapCursor at index 1>"),
    ("ArgCursor", lambda tmp: P.get_arg("x"), "<ArgCursor x>"),
    ("Config", lambda tmp: new_config("repr_cfg", [("k", index_t)]), "Config(repr_cfg)"),
    ("Journal", lambda tmp: Journal(f"{tmp}/j.log"), "<Journal {tmp}/j.log>"),
    ("FileLock", lambda tmp: FileLock(f"{tmp}/x.lock"), "<FileLock {tmp}/x.lock (free)>"),
    ("Leaderboard", lambda tmp: Leaderboard(), "<Leaderboard <memory>: 0 boards>"),
    ("Measurement", lambda tmp: Measurement({"t": 8}, time_s=0.002, repeats=3), "<Measurement {'t': 8} 2.000 ms (best of 3)>"),
    ("Measurement (failed)", lambda tmp: Measurement({"t": 4}, status="error", error="refused"), "<Measurement {'t': 4} error: refused>"),
    ("Space", lambda tmp: Space({"t": (4, 8)}), "Space(t=[4, 8])"),
    ("TuneResult", lambda tmp: _tuned(), "<TuneResult best={'t': 8} (2.000 ms), 1 evaluated>"),
    ("object-code type annotation", lambda tmp: f32_placeholder[8] @ DRAM, "f32"),
]


@pytest.mark.parametrize("make, expected", [r[1:] for r in REPRS], ids=[r[0] for r in REPRS])
def test_repr(make, expected, tmp_path):
    text = repr(make(tmp_path))
    if isinstance(expected, re.Pattern):  # symbol ids, registry sizes
        assert expected.fullmatch(text), text
    else:
        assert text == expected.replace("{tmp}", str(tmp_path))
