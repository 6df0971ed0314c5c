#!/usr/bin/env python3
"""What ``cc`` spends on each kernel kind of the benchmark's ``first_result``
workload, scheduled for AVX2 and for AVX-512: the best-of-N wall time of the
backend's own build (``native._build_unit``, lean→wide header fallback and
all), the size of the ``.so``, and which headers the unit was built with
(``lean`` sub-headers, the ``wide`` umbrella header after a lean rejection,
or none for a scalar unit).

    python tools/cc_census.py [--repeats N]

``CC`` picks the compiler, as it does for the backend.  Each machine is
built for a fixed ``-march`` that has its ISA (``repro.metrics.kernels``),
whatever the host is; nothing is run.  Exits non-zero when there is no
compiler or any unit fails to build.
"""
from __future__ import annotations

import argparse
import math
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.backend import native  # noqa: E402
from repro.backend.codegen import CodegenOptions, emit_unit  # noqa: E402
from repro.metrics.kernels import FIRST_RESULT_KINDS, MACHINES, MARCH  # noqa: E402


def build(cc: str, unit, options: CodegenOptions, repeats: int, so_path: pathlib.Path):
    """(best wall ms, .so bytes, headers) of building ``unit`` the way the
    backend does, or None if ``cc`` rejects it."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            native._build_unit(unit, options, cc, unit.name, str(so_path))
        except native.NativeUnavailableError:
            return None
        best = min(best, time.perf_counter() - start)
    built = so_path.with_suffix(".c").read_text()  # the text that was compiled
    headers = "wide" if "<immintrin.h>" in built else "lean" if "intrin.h" in built else "none"
    return best * 1e3, so_path.stat().st_size, headers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="builds per unit; the best is reported")
    args = parser.parse_args()
    cc = native.find_cc()
    if cc is None:
        print("no C compiler on PATH (set $CC)")
        return 1
    print(f"{native.cc_version(cc)}, best of {args.repeats}")
    print(f"{'kind':8s} {'machine':7s} {'headers':7s} {'cc ms':>8s} {'.so bytes':>10s}")
    failed, ms = 0, {m: [] for m in MACHINES}
    with tempfile.TemporaryDirectory(prefix="cc-census-") as tmp:
        so_path = pathlib.Path(tmp) / "unit.so"
        for machine in sorted(MACHINES):
            options = CodegenOptions(march=MARCH[machine])
            for kind in sorted(FIRST_RESULT_KINDS):
                unit = emit_unit(FIRST_RESULT_KINDS[kind](MACHINES[machine]), options)
                got = build(cc, unit, options, args.repeats, so_path)
                if got is None:
                    failed += 1
                    print(f"{kind:8s} {machine:7s} FAILED")
                    continue
                ms[machine].append(got[0])
                print(f"{kind:8s} {machine:7s} {got[2]:7s} {got[0]:8.1f} {got[1]:10d}")
    for machine, times in ms.items():
        if times:
            geomean = math.exp(sum(map(math.log, times)) / len(times))
            print(f"geomean cc ms, {machine}: {geomean:.1f} over {len(times)} units")
    if failed:
        print(f"{failed} unit(s) failed to build")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
