#!/usr/bin/env python3
"""Census of the seeded ``blas_family`` scheduling work: each pair of the
family (``bench/kernels.py``) applied cold and replayed from its JSON trace.

Prints one fingerprint line per seed, a digest over every pair's
``state_hash``, ``procedure_digest`` and trace JSON: two checkouts that print
the same line schedule the family byte-identically.  With ``--profile`` the
cold + replay pass runs under cProfile, and the top rows by cumulative time
and the total call count follow.  Exits 1 when a replay does not reproduce
its cold result.

    python tools/sched_census.py --seeds 7 3131 5353 9191
    python tools/sched_census.py --seeds 7 --passes 2 --profile --top 25
"""
from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import pathlib
import pstats
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import kernels as K  # noqa: E402
from repro.api import ReplayCache, replay  # noqa: E402
from repro.api.trace import state_hash  # noqa: E402
from repro.ir.printing import procedure_digest  # noqa: E402


def schedule_family(pairs, procs):
    """``{item: (state_hash, procedure_digest, trace JSON)}`` of the cold
    apply, and the items whose replay differs from it."""
    out, broken = {}, []
    for pair in pairs:
        proc = procs[pair.item]
        cold, trace = pair.schedule.apply_traced(proc, pair.knobs, cache=ReplayCache())
        text = json.dumps(trace.to_dict())
        out[pair.item] = (state_hash(cold), procedure_digest(cold._root), text)
        again = replay(text, proc)
        if (state_hash(again), procedure_digest(again._root)) != out[pair.item][:2]:
            broken.append(pair.item)
    return out, broken


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--passes", type=int, default=1, help="cold + replay passes per seed (default 1)")
    ap.add_argument("--profile", action="store_true", help="run the passes under cProfile")
    ap.add_argument("--top", type=int, default=20, help="profile rows to print (default 20)")
    args = ap.parse_args(argv)

    failed = False
    for seed in args.seeds:
        pairs = K.family_pairs(random.Random(seed))
        procs = {p.item: K.parse(p) for p in pairs}
        prof = cProfile.Profile() if args.profile else None
        for _ in range(args.passes):
            if prof:
                prof.enable()
            results, broken = schedule_family(pairs, procs)
            if prof:
                prof.disable()
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
