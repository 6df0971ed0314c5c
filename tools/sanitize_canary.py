#!/usr/bin/env python3
"""Check that a native kernel's memory error leaves a sanitizer log.

    python tools/sanitize_canary.py LOG_DIR

Run it with the CI ``native-sanitize`` job's settings: ``CC`` the
``tools/cc-sanitize`` wrapper, ``LD_PRELOAD`` the ASan and UBSan runtimes,
and ``ASAN_OPTIONS`` / ``UBSAN_OPTIONS`` with a ``log_path`` inside LOG_DIR.
It builds, past the parser (which refuses it), a kernel that writes
``v[i, 1]`` of a 1-D ``v: f32[4]``, runs it with ``backend="c"`` and exits 1
unless a log appeared in LOG_DIR.  The quarantine guard runs a first call in
a forked child and reads a sanitizer abort there as a crash, falling back to
the NumPy rung; a log file is what tells the two apart, and this shows the
job's log check would see one.
"""
from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import proc_from_source  # noqa: E402
from repro.core.procedure import Procedure  # noqa: E402
from repro.interp import run_proc  # noqa: E402
from repro.ir import nodes as N  # noqa: E402
from repro.ir.build import with_fields  # noqa: E402
from repro.ir.types import int_t  # noqa: E402


def main(log_dir: pathlib.Path) -> int:
    root = proc_from_source("def f(v: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        v[i] = 2.0\n")._root
    loop = root.body[0]
    write = with_fields(loop.body[0], idx=[*loop.body[0].idx, N.Const(1, int_t)])
    p = Procedure(with_fields(root, body=[with_fields(loop, body=[write])]))
    try:
        run_proc(p, backend="c", v=np.zeros(4, np.float32))
    except Exception as e:  # the rungs below C refuse the rank
        print(f"run_proc: {type(e).__name__}: {e}")
    logs = sorted(log_dir.glob("*"))
    for log in logs:
        print(f"== {log}\n{log.read_text()}")
    if not logs:
        print(f"no sanitizer log in {log_dir}: the job's log check would miss this write")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(pathlib.Path(sys.argv[1])))
