"""``blas_family``: amortised scheduling over a kernel family.

Every pass schedules the seeded family three ways: **cold**
(``apply_traced`` against a fresh ``ReplayCache``), **replay** (the trace,
round-tripped through JSON, re-applied to the unscheduled kernel) and
**hit** (``apply`` against a warm in-memory cache).  No compiler runs and
no kernel executes in the timed window, so the edit engine does nearly all
the work and ``backend`` / ``guard`` / ``service`` do none.
"""

from __future__ import annotations

import json
import random
import statistics
from typing import Dict, List

from .. import kernels as K
from .. import surface as R
from .base import Op, OpClass, Samples, Workload

HIT_REPS = 20


def _best_s(times: Dict[str, List[int]]) -> float:
    return sum(min(v) for v in times.values()) / 1e9


class BlasFamily(Workload):
    name = "blas_family"
    # medians, not best passes: the error the speed calibration leaves on a
    # sample is symmetric, and over the 4-5 passes of a window a pair's median
    # varies a third as much between runs as its minimum (measured)
    classes = (
        OpClass("cold", "median", headline=True),
        OpClass("replay", "median"),
        OpClass("hit", "median"),
    )

    def generate(self) -> None:
        pairs = K.family_pairs(random.Random(self.seed))
        self.pairs = pairs[:4] if self.quick else pairs

    def setup(self, tracer) -> None:
        self.procs = {}
        for p in self.pairs:
            with tracer.span("proc_from_source", "frontend", item=p.item):
                self.procs[p.item] = K.parse(p)
        self.fingerprints = {p.item: p.schedule.fingerprint(p.knobs) for p in self.pairs}
        self.warm = R.ReplayCache()
        self.scheduled: Dict[str, object] = {}
        self.traces: Dict[str, object] = {}
        self.trace_json: Dict[str, str] = {}
        self.cold_hash: Dict[str, str] = {}

    # -- operations ----------------------------------------------------------

    def _cold(self, p: K.Pair) -> Op:
        proc = self.procs[p.item]

        def run(tracer):
            with tracer.span("apply_traced", "api", family=p.family):
                return p.schedule.apply_traced(proc, p.knobs, cache=R.ReplayCache())

        def check(result):
            out, trace = result
            digest = R.state_hash(out)
            if self.cold_hash.setdefault(p.item, digest) != digest:
                return "cold apply is not deterministic (state_hash changed between passes)"
            if p.item not in self.scheduled:
                self.scheduled[p.item] = out
                self.traces[p.item] = trace
                self.trace_json[p.item] = json.dumps(trace.to_dict())
                self.warm.put(proc, self.fingerprints[p.item], out, trace)
            return None

        return Op("cold", p.item, run, check=check)

    def _replay(self, p: K.Pair) -> Op:
        proc = self.procs[p.item]

        def run(tracer):
            with tracer.span("replay", "api", family=p.family):
                return R.replay(self.trace_json[p.item], proc)

        def check(out):
            if R.state_hash(out) != self.cold_hash[p.item]:
                return "replay does not reproduce the cold state_hash"
            return None

        return Op("replay", p.item, run, check=check)

    def _hit(self, p: K.Pair) -> Op:
        proc = self.procs[p.item]

        def run(tracer):
            with tracer.span("apply", "api", tier="hit"):
                return p.schedule.apply(proc, p.knobs, cache=self.warm)

        def check(out):
            if out is not self.scheduled[p.item]:
                return "warm apply did not return the cached procedure"
            return None

        return Op("hit", p.item, run, check=check, reps=HIT_REPS)

    def ops(self) -> List[Op]:
        return [make(p) for make in (self._cold, self._replay, self._hit) for p in self.pairs]

    def op_list(self):
        return [(c.name, p.item) for c in self.classes for p in self.pairs]

    def verify(self, samples: Samples) -> None:
        for p in self.pairs:
            out = self.scheduled.get(p.item)
            if out is None:
                continue  # its cold apply failed and is already counted
            why = K.check_scheduled(p, out, self.seed)
            if why is not None:
                samples.fail("cold", p.item, f"scheduled procedure is wrong: {why}")

    # -- reporting -----------------------------------------------------------

    def named_metrics(self, samples: Samples) -> Dict[str, float]:
        cold, rep, hit = (samples.of_class(c) for c in ("cold", "replay", "hit"))
        out: Dict[str, float] = {}
        if cold:
            cold_s = _best_s(cold)
            out["api.sched_cold_kernels_per_s"] = len(cold) / cold_s
            rewrites = sum(len(t.applied()) for t in self.traces.values())
            out["primitives.rewrites_total"] = rewrites
            out["ir.atomic_edits_total"] = sum(t.total_edits() for t in self.traces.values())
            out["ir.lines_after"] = sum(len(str(p).splitlines()) for p in self.scheduled.values())
            out["primitives.us_per_rewrite"] = cold_s * 1e6 / rewrites
            out["api.trace_bytes"] = sum(len(j) for j in self.trace_json.values())
            for fam in ("l1", "l2", "sgemm", "blur", "unsharp", "gemmini"):
                mine = [min(cold[p.item]) for p in self.pairs if p.family == fam and p.item in cold]
                if mine:
                    out[f"api.apply_cold_ms.{fam}"] = statistics.fmean(mine) / 1e6
        if rep:
            rep_s = _best_s(rep)
            out["api.replay_kernels_per_s"] = len(rep) / rep_s
            out["api.replay_ms"] = rep_s * 1e3 / len(rep)
            if cold:
                out["api.replay_over_cold"] = rep_s / _best_s({k: cold[k] for k in rep if k in cold})
        if hit:
            out["api.hit_us"] = statistics.median(t for v in hit.values() for t in v) / 1e3
        return out

    def layer_probes(self, tracer) -> Dict[str, float]:
        """frontend parse, trace encode/decode, fingerprinting, and the two
        disk tiers (``persist`` records, ``ReplayCache(path=)``)."""
        t = {k: [] for k in ("parse", "enc", "dec", "fp", "wr", "rd", "put", "get")}
        disk = self.sandbox.fresh("replay-disk")
        rec_dir = self.sandbox.fresh("records")

        def timed(key, layer, name, fn):
            result, ms = self.probe(tracer, name, layer, fn)
            t[key].append(ms)
            return result

        for i, p in enumerate(self.pairs):
            if p.item not in self.traces:
                continue
            trace, proc, fp = self.traces[p.item], self.procs[p.item], self.fingerprints[p.item]
            if p.family != "gemmini":
                timed("parse", "frontend", "proc_from_source", lambda: R.proc_from_source(p.source))
            text = timed("enc", "api", "trace_encode", lambda: json.dumps(trace.to_dict()))
            timed("dec", "api", "trace_decode", lambda: R.Trace.from_dict(json.loads(text)))
            timed("fp", "api", "fingerprint", lambda: p.schedule.fingerprint(p.knobs))
            path = f"{rec_dir}/{i}.json"
            payload = {"trace": trace.to_dict()}
            timed("wr", "persist", "write_record", lambda: R.write_record(path, payload))
            timed("rd", "persist", "read_record", lambda: R.read_record(path))
            writer = R.ReplayCache(path=disk)
            timed("put", "api", "disk_put", lambda: writer.put(proc, fp, self.scheduled[p.item], trace))
            reader = R.ReplayCache(path=disk)  # empty memory tier: must come from disk
            got = timed("get", "api", "disk_hit", lambda: reader.get(proc, fp))
            if got is None or R.state_hash(got[0]) != self.cold_hash[p.item]:
                raise RuntimeError(f"disk tier did not return {p.item}")
        med = {key: statistics.median(v) for key, v in t.items()}
        return {
            "frontend.parse_ms": med["parse"],
            "api.trace_encode_ms": med["enc"],
            "api.trace_decode_ms": med["dec"],
            "api.fingerprint_us": med["fp"] * 1e3,
            "persist.record_write_ms": med["wr"],
            "persist.record_read_ms": med["rd"],
            "api.disk_put_ms": med["put"],
            "api.disk_hit_ms": med["get"],
        }
