"""The process environment of a benchmark run: hermetic, private, pinned.

* every ``REPRO_*`` switch that changes what the stack does is scrubbed, so
  a developer's shell cannot turn a C measurement into a NumPy one;
* all state the stack writes (native artifacts, replay-cache disk tier,
  service state, compiler temp files) goes to a private sandbox under
  ``bench/out/``, so cold is cold and the user's caches are untouched;
* the load generator is pinned to one CPU and the service to another.

The fourth part of the noise control, calibration, is ``bench.clock``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Environment switches that change which engine runs, how many threads it
#: uses, whether the guard is on, or inject faults.
SCRUBBED = ("REPRO_FAULTS", "REPRO_EXEC_BACKEND", "REPRO_EXEC_INLINE", "REPRO_NUM_THREADS")
SCRUBBED_PREFIXES = ("REPRO_GUARD",)


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def scrub_environment(environ=None) -> List[str]:
    """Remove the behaviour-changing ``REPRO_*`` variables; return their names."""
    environ = os.environ if environ is None else environ
    doomed = [
        k for k in list(environ) if k in SCRUBBED or k.startswith(SCRUBBED_PREFIXES)
    ]
    for k in doomed:
        del environ[k]
    return sorted(doomed)


def add_src_to_path() -> None:
    """Make ``import repro`` find this checkout's ``src/`` (the benchmark's
    command cannot set PYTHONPATH).  A checkout without it fails at the
    import in :mod:`bench.surface`, loudly."""
    src = REPO_ROOT / "src"
    if (src / "repro").is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))


class Sandbox:
    """A private directory tree for one run, removed on :meth:`close`."""

    def __init__(self):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self._saved = {k: os.environ.get(k) for k in ("TMPDIR", "REPRO_NATIVE_CACHE")}
        # cc and tempfile honour TMPDIR: keep their scratch files inside too
        os.environ["TMPDIR"] = self.fresh("tmp")
        tempfile.tempdir = None
        self.native_cache(self.fresh("native"))

    def fresh(self, label: str) -> str:
        """A new empty directory."""
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.root)

    @staticmethod
    def native_cache(path: str) -> None:
        """Point the native artifact cache at ``path`` (read per call by
        ``repro.backend.native.cache_dir``)."""
        os.environ["REPRO_NATIVE_CACHE"] = path

    def close(self) -> None:
        for k, v in self._saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        tempfile.tempdir = None
        shutil.rmtree(self.root, ignore_errors=True)


def pin_cpus() -> Tuple[Optional[int], Optional[int], Optional[set]]:
    """Pin this process to one CPU; return ``(generator_cpu, service_cpu,
    the affinity to restore afterwards)``.  All None where affinity is
    unavailable or only one CPU is allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return None, None, None
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    if len(cpus) < 2:
        return None, None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[-1], allowed


def set_affinity(pid: int, cpus) -> None:
    if hasattr(os, "sched_setaffinity") and cpus:
        os.sched_setaffinity(pid, set(cpus))


def _run_text(argv: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=10, cwd=REPO_ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info(cc: Optional[str]) -> Dict[str, object]:
    """What a record needs to be comparable: commit, machine, toolchain."""
    import numpy as np

    cc_version = _run_text([cc, "--version"]) if cc else None
    return {
        "git_sha": _run_text(["git", "rev-parse", "HEAD"]),
        "machine_id": f"{platform.node()}-{platform.machine()}-{platform.processor() or 'cpu'}",
        "cores": os.cpu_count(),
        "cc": cc_version.splitlines()[0] if cc_version else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
