#!/usr/bin/env python3
"""Census of the seeded ``blas_family`` scheduling work: each pair of the
family (``bench/kernels.py``) applied cold and replayed from its JSON trace.

Prints one fingerprint line per seed, a digest over every pair's
``state_hash``, ``procedure_digest`` and trace JSON: two checkouts that print
the same line schedule the family byte-identically.  With ``--profile`` the
cold + replay pass runs under cProfile, and the top rows by cumulative time
and the total call count follow.  With ``--timing`` each pass prints its
wall-clock split instead, with no profiler in the way (cProfile inflates the
many small calls): cold ms, replay ms, and the ms and number of
``procedure_digest`` calls inside each.  Exits 1 when a replay does not reproduce its cold result.

    python tools/sched_census.py --seeds 7 3131 5353 9191
    python tools/sched_census.py --seeds 7 --passes 2 --profile --top 25
    python tools/sched_census.py --seeds 5353 --passes 4 --timing
"""
from __future__ import annotations

import argparse
import collections
import cProfile
import hashlib
import io
import json
import pathlib
import pstats
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import kernels as K  # noqa: E402
from repro.api import ReplayCache, replay  # noqa: E402
from repro.api.trace import state_hash  # noqa: E402
from repro.ir import printing  # noqa: E402
from repro.ir.printing import procedure_digest  # noqa: E402


class SplitClock:
    """Wall-clock ms of a pass's cold and replay phases, and the ms and
    number of the ``procedure_digest`` calls inside each (a memo hit counts;
    a callee's digest is part of its caller's): every ``repro`` module that
    bound ``procedure_digest`` by name is made to call it through this clock."""

    def __init__(self):
        self.phase, self.ms, self.calls = None, collections.defaultdict(float), collections.Counter()
        self.inside = False
        inner = printing.procedure_digest

        def timed(root):
            if self.inside or not self.phase:
                return inner(root)
            self.inside, t = True, time.perf_counter()
            try:
                return inner(root)
            finally:
                self.inside = False
                self.ms[self.phase + " digest"] += (time.perf_counter() - t) * 1e3
                self.calls[self.phase] += 1

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, "procedure_digest", None) is inner:
                mod.procedure_digest = timed

    def run(self, phase: str, fn):
        self.phase, t = phase, time.perf_counter()
        try:
            return fn()
        finally:
            self.ms[phase] += (time.perf_counter() - t) * 1e3
            self.phase = None

    def line(self) -> str:
        ms, n = self.ms, self.calls
        return (
            f"cold {ms['cold']:.1f} ms (procedure_digest {ms['cold digest']:.1f} ms, {n['cold']} calls), "
            f"replay {ms['replay']:.1f} ms (procedure_digest {ms['replay digest']:.1f} ms, {n['replay']} calls), "
            f"replay/cold {ms['replay'] / ms['cold']:.2f}"
        )


def schedule_family(pairs, procs, clock=None):
    """``{item: (state_hash, procedure_digest, trace JSON)}`` of the cold
    apply, and the items whose replay differs from it."""
    run = clock.run if clock else (lambda phase, fn: fn())
    out, broken = {}, []
    for pair in pairs:
        proc = procs[pair.item]
        cold, trace = run("cold", lambda: pair.schedule.apply_traced(proc, pair.knobs, cache=ReplayCache()))
        text = json.dumps(trace.to_dict())
        out[pair.item] = (state_hash(cold), procedure_digest(cold._root), text)
        again = run("replay", lambda: replay(text, proc))
        if (state_hash(again), procedure_digest(again._root)) != out[pair.item][:2]:
            broken.append(pair.item)
    return out, broken


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--passes", type=int, default=1, help="cold + replay passes per seed (default 1)")
    ap.add_argument("--profile", action="store_true", help="run the passes under cProfile")
    ap.add_argument("--top", type=int, default=20, help="profile rows to print (default 20)")
    ap.add_argument("--timing", action="store_true", help="print each pass's wall-clock split")
    args = ap.parse_args(argv)
    clock = SplitClock() if args.timing else None

    failed = False
    for seed in args.seeds:
        pairs = K.family_pairs(random.Random(seed))
        procs = {p.item: K.parse(p) for p in pairs}
        prof = cProfile.Profile() if args.profile else None
        for n in range(args.passes):
            if clock:
                clock.ms.clear()
                clock.calls.clear()
            if prof:
                prof.enable()
            results, broken = schedule_family(pairs, procs, clock)
            if prof:
                prof.disable()
            if clock:
                print(f"seed {seed} pass {n + 1}: {clock.line()}")
        h = hashlib.sha256()
        for item in sorted(results):
            h.update("\0".join((item,) + results[item]).encode())
        print(f"seed {seed}: {len(results)} pairs, fingerprint {h.hexdigest()[:32]}")
        for item in broken:
            print(f"  replay does not reproduce the cold result: {item}")
        failed |= bool(broken)
        if prof:
            buf = io.StringIO()
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("cumulative").print_stats(args.top)
            print(buf.getvalue().rstrip())
            print(f"seed {seed}: {stats.total_calls} function calls over {args.passes} pass(es)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
