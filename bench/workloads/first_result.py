"""``first_result``: time to the first correct native result.

Each operation takes an already scheduled kernel to a verified output
through ``run_proc(backend="c")`` on an **empty** private artifact cache
(``clear_memo()`` + ``clear_compile_cache()``), with the quarantine guard
on: emit C, run ``cc``, ``dlopen``, forked first run, in-process run.  It
is followed by a new-process-style **reload**: the in-process memo is
dropped and the validated artifact comes back from disk.  Scheduling is
done in set-up, so ``backend`` and ``guard`` dominate and an optimisation of
the edit engine must not move this workload.
"""

from __future__ import annotations

import glob
import os
import random
import statistics
from typing import Dict, List, Optional

from .. import kernels as K
from .. import surface as R
from ..spans import median_ms as span_ms
from .base import Op, OpClass, Samples, Workload

#: Sizes of the first run: large enough to be a real call, small enough that
#: the compiler, not the kernel, is what is timed.
RUN_SIZES = {
    "l1": {"n": 4096},
    "l2": {"M": 64, "N": 64},
    "sgemm": {"M": 48, "N": 64, "K": 32},
    "blur": {"H": 32, "W": 256},
    "unsharp": {"H": 32, "W": 256},
}


def first_result_pairs(rng: random.Random) -> List[K.Pair]:
    """Eight AVX2 kernels: axpy, dot, scal, gemv_n and ger in a seeded
    precision (variants whose C takes ``cc`` about equally long, so runs
    with different seeds do equal work), plus sgemm, blur and unsharp, in
    seeded order."""
    pairs = [K.l1_pair(rng.choice(K.L1_KINDS[kind][0]), "AVX2", 2) for kind in ("axpy", "dot", "scal")]
    pairs += [K.l2_pair(rng.choice(v), "AVX2", 2, 2) for v in (("sgemv_n", "dgemv_n"), ("sger", "dger"))]
    pairs += [K.sgemm_pair("AVX2"), K.halide_pair("blur", "AVX2", {}), K.halide_pair("unsharp", "AVX2", {})]
    rng.shuffle(pairs)
    return pairs


class FirstResult(Workload):
    name = "first_result"
    needs_cc = True
    # cc and dlopen are deterministic CPU-bound work, and a window holds only
    # 2-3 rounds: an item's statistic is its best round
    classes = (OpClass("first", "best", headline=True), OpClass("reload", "best"))

    def generate(self) -> None:
        pairs = first_result_pairs(random.Random(self.seed))
        self.pairs = pairs[:2] if self.quick else pairs

    def setup(self, tracer) -> None:
        self.scheduled: Dict[str, object] = {}
        self.pristine: Dict[str, dict] = {}
        for p in self.pairs:
            with tracer.span("proc_from_source", "frontend", item=p.item):
                proc = K.parse(p)
            with tracer.span("apply_traced", "api", family=p.family):
                self.scheduled[p.item], _ = p.schedule.apply_traced(proc, p.knobs)
            self.pristine[p.item] = R.make_random_args(
                self.scheduled[p.item], RUN_SIZES[p.family], seed=self.seed
            )
            self.clock.split()
        self.want: Dict[str, dict] = {}
        self.cache_dir: Dict[str, str] = {}
        self.so_bytes: Dict[str, int] = {}
        self.c_source: Dict[str, str] = {}

    # -- operations ----------------------------------------------------------

    def _expected(self, p: K.Pair) -> dict:
        """The reference output, computed once per kernel (untimed)."""
        if p.item not in self.want:
            want = K.copy_args(self.pristine[p.item])
            K.reference_for(p)(want)
            self.want[p.item] = want
        return self.want[p.item]

    def _native(self, p: K.Pair, tracer, args: dict, phase: str) -> None:
        """``run_proc(backend="c")`` untraced; the same steps through each
        layer's public function, one span each, when traced."""
        proc = self.scheduled[p.item]
        if not tracer.enabled:
            R.run_proc(proc, backend="c", threads=1, **args)
            return
        with tracer.span("emit_unit", "backend", phase=phase):
            self.c_source[p.item] = R.emit_unit(proc).source
        with tracer.span("compile_native", "backend", phase=phase):
            kernel = R.compile_native(proc)
        with tracer.span("call_guarded", "guard", phase=phase):
            R.call_guarded(kernel, args, threads=1)

    def _check(self, p: K.Pair, args: dict) -> Optional[str]:
        built = glob.glob(os.path.join(self.cache_dir[p.item], "*.so"))
        if len(built) != 1:
            # run_proc falls down its c -> compiled -> interp ladder silently;
            # no artifact means another engine produced this output
            return f"silently degraded: {len(built)} shared objects in the private cache, expected 1"
        self.so_bytes[p.item] = os.path.getsize(built[0])
        return K.mismatch(args, self._expected(p), rtol=2e-3, atol=1e-4)

    def _first(self, p: K.Pair) -> Op:
        state = {}

        def prepare():
            self.cache_dir[p.item] = self.sandbox.fresh("native")
            self.sandbox.native_cache(self.cache_dir[p.item])
            R.clear_memo()
            R.clear_compile_cache()
            state["args"] = K.copy_args(self.pristine[p.item])

        def run(tracer):
            self._native(p, tracer, state["args"], "first")

        return Op("first", p.item, run, prepare, lambda _: self._check(p, state["args"]))

    def _reload(self, p: K.Pair) -> Op:
        state = {}

        def prepare():
            R.clear_memo()  # what a new process starts with; the disk cache stays
            state["args"] = K.copy_args(self.pristine[p.item])

        def run(tracer):
            self._native(p, tracer, state["args"], "reload")

        return Op("reload", p.item, run, prepare, lambda _: self._check(p, state["args"]))

    def ops(self) -> List[Op]:
        # a kernel's reload follows its first result: it needs that cache dir
        return [make(p) for p in self.pairs for make in (self._first, self._reload)]

    def op_list(self):
        return [(cls, p.item) for p in self.pairs for cls in ("first", "reload")]

    # -- reporting -----------------------------------------------------------

    def named_metrics(self, samples: Samples) -> Dict[str, float]:
        first, reload_ = samples.of_class("first"), samples.of_class("reload")
        out: Dict[str, float] = {"backend.so_built": float(sum(len(v) for v in first.values()))}
        if first:
            out["backend.first_result_p50_s"] = statistics.median(t for v in first.values() for t in v) / 1e9
            out["backend.so_bytes"] = float(sum(self.so_bytes.values()))
        if reload_:
            out["backend.reload_p50_ms"] = statistics.median(t for v in reload_.values() for t in v) / 1e6
        return out

    def layer_probes(self, tracer) -> Dict[str, float]:
        spans = tracer.spans
        source = "".join(self.c_source.values())
        out = {
            "backend.emit_ms": span_ms(spans, "emit_unit", phase="first"),
            "backend.build_ms": span_ms(spans, "compile_native", phase="first"),
            "backend.disk_hit_ms": span_ms(spans, "compile_native", phase="reload"),
            "backend.c_bytes": float(len(source)),
            "backend.simd_intrinsics": float(source.count("_mm256_") + source.count("_mm512_")),
            "backend.omp_pragmas": float(source.count("#pragma omp")),
        }
        first, warm = (span_ms(spans, "call_guarded", phase=ph) for ph in ("first", "reload"))
        if first is not None and warm is not None:
            out["guard.quarantine_ms"] = first - warm
        out.update(self._tuner_sweep(tracer))
        return {k: v for k, v in out.items() if v is not None}

    def _tuner_sweep(self, tracer) -> Dict[str, float]:
        """One small sweep: saxpy over ``level1_space`` on the C backend, on
        an empty artifact cache, with an in-memory leaderboard."""
        self.sandbox.native_cache(self.sandbox.fresh("native"))
        R.clear_memo()
        tuner = R.Tuner(
            R.LEVEL1_KERNELS["saxpy"], R.level1_schedule(), R.level1_space(),
            {"n": 4096}, repeats=1, backend="c",
        )
        result, sweep_ms = self.probe(tracer, "Tuner.tune", "tune", tuner.tune)
        n = len(result.measurements)
        return {
            "tune.sweep_s": sweep_ms / 1e3,
            "tune.candidates": float(n),
            "tune.per_candidate_ms": sweep_ms / n,
        }
