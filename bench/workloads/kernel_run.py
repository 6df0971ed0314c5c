"""``kernel_large`` and ``kernel_small``: the generated code, and the cost
of getting to it.

The same eight AVX2-scheduled kernels run warm as a direct call of the
loaded ``NativeProc``, through ``run_proc(backend="c")`` and, at the small
sizes, through ``run_proc(backend="compiled")`` (the NumPy engine); always
``threads=1``.  ``kernel_large``'s headline is the direct call on tensors
larger than L2: the quality of the generated code.  ``kernel_small``'s is
``run_proc`` at the smallest sizes each schedule's preconditions allow,
where its per-call cost is nearly everything.  A dispatch fix moves the
second and not the first; a codegen fix does the reverse.
"""

from __future__ import annotations

import os
import random
import statistics
from typing import Dict, List, Optional

import numpy as np

from .. import env
from .. import kernels as K
from .. import surface as R
from ..spans import median_ms as span_ms
from ..stats import geomean
from .base import Op, OpClass, Samples, Workload

#: calls per pass, per class: enough that each class gets a similar share
REPS = {"large": {"c": 3, "direct": 3}, "small": {"c": 20, "direct": 40, "np": 20}}
#: the NumPy engine needs ~0.1 s per call for sgemm even at 96^3
SLOW_NP_REPS = 1


def _median_ms(times: List[float]) -> float:
    return statistics.median(times) / 1e6


class KernelRun(Workload):
    needs_cc = True
    size = ""  # "large" | "small"
    warm_passes = 1

    def _sizes(self, k: K.RunKernel) -> Dict[str, int]:
        return k.small if self.quick else getattr(k, self.size)

    def _seeded_args(self, k: K.RunKernel, sizes: Dict[str, int]) -> dict:
        index = list(K.RUN_KERNELS).index(k.name)
        return k.make_args(np.random.default_rng([self.seed, index]), sizes)

    def generate(self) -> None:
        names = list(K.RUN_KERNELS)
        self.kernels = [K.RUN_KERNELS[n] for n in (names[:2] if self.quick else names)]
        random.Random(self.seed).shuffle(self.kernels)  # the order of a pass
        self.args = {k.name: self._seeded_args(k, self._sizes(k)) for k in self.kernels}

    def setup(self, tracer) -> None:
        self.cache_dir = self.sandbox.fresh("native")
        self.sandbox.native_cache(self.cache_dir)
        R.clear_memo()
        R.clear_compile_cache()
        self.procs: Dict[str, object] = {}
        self.native: Dict[str, object] = {}
        for k in self.kernels:
            pair = k.pair()
            with tracer.span("proc_from_source", "frontend", item=k.name):
                proc = K.parse(pair)
            with tracer.span("apply_traced", "api", family=pair.family):
                self.procs[k.name], _ = pair.schedule.apply_traced(proc, pair.knobs)
            with tracer.span("compile_native", "backend", phase="first"):
                self.native[k.name] = R.compile_native(self.procs[k.name])
            # the quarantined first run, on small inputs: it validates the
            # artifact, so no warm call forks this (large) process again
            warm = k.make_args(np.random.default_rng(0), k.small)
            with tracer.span("call_guarded", "guard", phase="first"):
                R.call_guarded(self.native[k.name], warm, threads=1)
            R.run_proc(self.procs[k.name], backend="compiled", threads=1, **warm)
            self.clock.split()

    def _runs_np(self, k: K.RunKernel) -> bool:
        """Whether the NumPy engine is an operation class of the window.  At
        the large sizes it is not: every call first-touches temporaries as
        large as the tensors, and whether the kernel backs them with huge
        pages decides a 5x difference between otherwise equal runs.  The
        traced run still times it, ungated (``interp.run_np_ms.<kernel>``)."""
        return self.size == "small"

    # -- operations ----------------------------------------------------------

    def ops(self) -> List[Op]:
        reps = REPS["small" if self.quick else self.size]
        out: List[Op] = []
        for k in self.kernels:
            proc, native, args = self.procs[k.name], self.native[k.name], self.args[k.name]

            def run_c(tracer, proc=proc, args=args):
                if not tracer.enabled:
                    return R.run_proc(proc, backend="c", threads=1, **args)
                with tracer.span("compile_native", "backend", phase="memo"):
                    kernel = R.compile_native(proc)
                with tracer.span("call_guarded", "guard", phase="validated"):
                    R.call_guarded(kernel, args, threads=1)

            def run_direct(tracer, native=native, args=args):
                with tracer.span("NativeProc.__call__", "backend"):
                    native(args, threads=1)

            def run_np(tracer, proc=proc, args=args):
                with tracer.span("run_proc", "interp", backend="compiled"):
                    R.run_proc(proc, backend="compiled", threads=1, **args)

            # one untimed call first: every class then finds the kernel's
            # tensors as cache-resident as the others do, whichever ran last
            def touch(native=native, args=args):
                native(args, threads=1)

            # a streaming kernel slows with the memory system, not the core;
            # run_proc's own per-call work is the interpreter's either way
            native_bound = "memory" if k.streams and "memory" in self.resources else "cpu"
            out.append(Op("c", k.name, run_c, touch, reps=reps["c"]))
            out.append(Op("direct", k.name, run_direct, touch, reps=reps["direct"], resource=native_bound))
            if self._runs_np(k):
                slow = k.name == "sgemm"
                out.append(
                    Op("np", k.name, run_np, touch, reps=SLOW_NP_REPS if slow else reps["np"], resource=native_bound)
                )
        return out

    def op_list(self):
        return [
            (cls, k.name)
            for k in self.kernels
            for cls in ("c", "direct", "np")
            if cls != "np" or self._runs_np(k)
        ]

    def verify(self, samples: Samples) -> None:
        """One more call per kernel and engine on pristine seeded inputs (at
        ``RunKernel.check_sizes``), checked against the NumPy reference; and
        the proof that class ``c`` ran C."""
        for k in self.kernels:
            proc = self.procs[k.name]
            pristine = self._seeded_args(k, k.check_sizes(self._sizes(k)))
            why = self._prove_native(k, proc)
            if why is not None:
                # every run_proc(backend="c") sample of this kernel may have
                # come from another engine: none of them counts
                for _ in samples.times_ns.pop(("c", k.name), []):
                    samples.fail("c", k.name, why)
            # ``direct`` calls the very object ``c`` resolves to (proven
            # above), so checking ``c`` checks both
            engines = {"c": "c"}
            if self._runs_np(k):
                engines["np"] = "compiled"
            want = K.expected_run(k, pristine)
            for cls, backend in engines.items():
                got = K.copy_args(pristine)
                R.run_proc(proc, backend=backend, threads=1, **got)
                why = K.check_run(got, want)
                if why is not None:
                    samples.fail(cls, k.name, why)

    def _prove_native(self, k: K.RunKernel, proc) -> Optional[str]:
        """``run_proc(backend="c")`` degrades silently; the C artifact ran
        only if it is in the private cache and still resolves and runs
        through the public native entry points."""
        try:
            kernel = R.compile_native(proc)
            R.call_guarded(kernel, k.make_args(np.random.default_rng(0), k.small), threads=1)
        except Exception as exc:  # noqa: BLE001 — any refusal means the ladder was taken
            return f"silently degraded: native path refuses ({type(exc).__name__}: {exc})"
        if kernel is not self.native[k.name] or os.path.dirname(kernel.so_path) != self.cache_dir:
            return "silently degraded: the artifact is not the one built in set-up"
        if not os.path.exists(kernel.so_path):
            return "silently degraded: no shared object in the private cache"
        return None

    # -- reporting -----------------------------------------------------------

    def named_metrics(self, samples: Samples) -> Dict[str, float]:
        c, direct, np_ = (samples.of_class(x) for x in ("c", "direct", "np"))
        out: Dict[str, float] = {}
        for k in self.kernels:
            sizes = self._sizes(k)
            if k.name in c:
                out[f"backend.run_c_ms.{k.name}"] = _median_ms(c[k.name])
            if k.name in direct:
                ms = _median_ms(direct[k.name])
                out[f"backend.kernel_direct_ms.{k.name}"] = ms
                # computed bytes over time; the arrays fit the shared L3, so
                # this is a cache-resident rate, not DRAM bandwidth
                out[f"backend.gbps.{k.name}"] = k.bytes_moved(sizes) / (ms * 1e6)
                if k.name == "sgemm":
                    out["backend.sgemm_c_gflops"] = k.flops(sizes) / (ms * 1e6)
            if k.name in np_:
                out[f"interp.run_np_ms.{k.name}"] = _median_ms(np_[k.name])
        if c:
            out["backend.run_c_geomean_ms"] = geomean([_median_ms(v) for v in c.values()])
        if np_:
            out["interp.run_np_geomean_ms"] = geomean([_median_ms(v) for v in np_.values()])
        both = [n for n in c if n in direct]
        if both:
            out["backend.dispatch_share"] = 1.0 - sum(_median_ms(direct[n]) for n in both) / sum(
                _median_ms(c[n]) for n in both
            )
        return out

    def layer_probes(self, tracer) -> Dict[str, float]:
        spans = tracer.spans
        out: Dict[str, Optional[float]] = {
            "backend.build_ms": span_ms(spans, "compile_native", phase="first"),
            "guard.quarantine_ms": span_ms(spans, "call_guarded", phase="first"),
        }
        memo = span_ms(spans, "compile_native", phase="memo")
        guarded, direct = span_ms(spans, "call_guarded", phase="validated"), span_ms(spans, "NativeProc.__call__")
        if memo is not None:
            out["backend.memo_hit_us"] = memo * 1e3
        if guarded is not None and direct is not None and self.size == "small":
            out["guard.validated_call_overhead_us"] = (guarded - direct) * 1e3
        saxpy = self.procs["saxpy"]
        small = K.RUN_KERNELS["saxpy"].make_args(np.random.default_rng(0), {"n": 1024})
        _, out["backend.emit_ms"] = self.probe(tracer, "emit_unit", "backend", lambda: R.emit_unit(saxpy))
        R.clear_compile_cache()
        _, out["interp.np_compile_ms"] = self.probe(tracer, "compile_proc", "interp", lambda: R.compile_proc(saxpy))
        compiled, hit_ms = self.probe(tracer, "compile_proc", "interp", lambda: R.compile_proc(saxpy))
        out["interp.np_cache_hit_us"] = hit_ms * 1e3
        _, out["interp.tree_ms"] = self.probe(
            tracer, "run_proc", "interp", lambda: R.run_proc(saxpy, backend="interp", **small)
        )
        # read defensively: these accessors are on the ROADMAP's delete list
        stats = getattr(compiled, "stats", None)
        if callable(stats):
            out["interp.vector_loops"] = float(stats().get("vector_loops", 0))
            out["interp.fallback_stmts"] = float(stats().get("fallback_stmts", 0))
        out.update(self._numpy_engine_at_large(tracer))
        out.update(self._two_thread_speedups(tracer))
        return {k: v for k, v in out.items() if v is not None}

    def _numpy_engine_at_large(self, tracer) -> Dict[str, float]:
        if self.quick or self.size != "large":
            return {}
        out = {}
        for k in self.kernels:
            if not k.np_at_large:
                continue  # 0.4-2 s per call: recorded as skipped (0), not failed
            proc, args = self.procs[k.name], self.args[k.name]
            out[f"interp.run_np_ms.{k.name}"] = statistics.median(
                self.probe(
                    tracer, "run_proc", "interp",
                    lambda: R.run_proc(proc, backend="compiled", threads=1, **args), backend="compiled",
                )[1]
                for _ in range(4)
            )
        out["interp.run_np_geomean_ms"] = geomean(list(out.values()))
        return out

    def _two_thread_speedups(self, tracer) -> Dict[str, float]:
        """blur's row loop is ``par``: time it on 1 and 2 threads, on both
        CPUs (the gated numbers are all ``threads=1``)."""
        if "blur" not in self.procs or None in self.cpus:
            return {}
        proc, args = self.procs["blur"], self.args["blur"]
        me = os.getpid()
        env.set_affinity(me, self.cpus)
        try:
            t = {
                (backend, n): min(
                    self.probe(
                        tracer, "run_proc", "interp" if backend == "compiled" else "backend",
                        lambda: R.run_proc(proc, backend=backend, threads=n, **args), threads=n,
                    )[1]
                    for _ in range(3)
                )
                for backend in ("c", "compiled")
                for n in (1, 2)
            }
        finally:
            env.set_affinity(me, self.cpus[:1])
        return {
            "backend.omp_speedup_2t": t["c", 1] / t["c", 2],
            "interp.par_speedup_2t": t["compiled", 1] / t["compiled", 2],
        }


class KernelLarge(KernelRun):
    name = "kernel_large"
    size = "large"
    resources = ("cpu", "memory")
    # the headline is the kernel itself: even at these sizes run_proc's
    # per-call cost (2-3 ms once the kernel has evicted the interpreter's
    # working set from L2) is over half of a level-1 call
    classes = (OpClass("direct", "median", headline=True), OpClass("c", "median"))


class KernelSmall(KernelRun):
    name = "kernel_small"
    size = "small"
    classes = (
        OpClass("c", "median", headline=True),
        OpClass("direct", "median"),
        OpClass("np", "median"),
    )
