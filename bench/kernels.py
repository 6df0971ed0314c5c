"""The kernel catalog: which object code and schedules the workloads use,
how their inputs are generated, and the independent reference each output
is checked against.

References never come from the code under test: level-1/level-2 kernels use
the NumPy oracles of ``repro.blas.reference``; sgemm/blur/unsharp/Gemmini
use the tree interpreter on the *unscheduled* procedure at small sizes, and
hand-written NumPy formulas at the large sizes the interpreter cannot reach
(``bench/tests`` checks those formulas against the interpreter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import surface as R

# ---------------------------------------------------------------------------
# The scheduled kernel family (blas_family, service_mix, first_result)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """One (kernel, Schedule) pair with its knob binding."""

    item: str  # unique label, e.g. "dgemv_t@AVX512[cols=4,rows=2]"
    family: str  # l1 | l2 | sgemm | blur | unsharp | gemmini
    kernel: str
    source: str  # the object code, as text
    schedule: object  # a repro Schedule value
    knobs: Dict[str, int] = field(default_factory=dict)
    #: how a service request names the same schedule, or None
    schedule_ref: Optional[dict] = None


def _precision(name: str) -> str:
    return "f64" if name.startswith("d") else "f32"


#: Level-1 kinds -> their variants.  The seed picks the variant; the knob
#: binding of a kind is fixed, because the interleave factor changes how much
#: scheduling work a pair is and runs with different seeds must do equal work.
L1_KINDS = {
    "asum": (("sasum", "dasum"), 2),
    "axpy": (("saxpy", "daxpy"), 4),
    "dot": (("sdot", "ddot", "sdsdot", "dsdot"), 2),
    "scal": (("sscal", "dscal"), 4),
    "copy": (("scopy", "dcopy"), 1),
    "swap": (("sswap", "dswap"), 2),
    "rot": (("srot", "drot"), 1),
    "rotm": (("srotm", "drotm"), 2),
}

#: Level-2 kinds -> (variants, fixed knob, its value, the seeded knob).  The
#: seeded knob is the one the kind's scheduling cost is flat in.
L2_KINDS = {
    "gemv": (("sgemv_n", "sgemv_t", "dgemv_n", "dgemv_t"), "rows", 2, "cols"),
    "ger": (("sger", "dger"), "rows", 2, "cols"),
    "symv": (("ssymv_l", "ssymv_u", "dsymv_l", "dsymv_u"), "cols", 2, "rows"),
    "syr": (("ssyr_l", "ssyr_u", "dsyr_l", "dsyr_u"), "cols", 2, "rows"),
    "syr2": (("ssyr2_l", "ssyr2_u", "dsyr2_l", "dsyr2_u"), "cols", 1, "rows"),
    "trmv": (
        tuple(f"{p}trmv_{u}{t}{d}" for p in "sd" for u in "lu" for t in "nt" for d in "nu"),
        "cols",
        2,
        "rows",
    ),
}

KNOB_VALUES = (1, 2, 4)
MACHINES = {"AVX2": R.AVX2, "AVX512": R.AVX512}

#: ``schedule_sgemm`` is a plain function of the machine; lifted so that it
#: is a Schedule value like the rest of the family (traced, replayable).
_sgemm_schedule = R.lift_op(lambda p, machine: R.schedule_sgemm(machine), "schedule_sgemm")


def _label(kernel: str, machine: str, knobs: Dict[str, int]) -> str:
    bound = ",".join(f"{k}={v}" for k, v in sorted(knobs.items()))
    return f"{kernel}@{machine}[{bound}]"


def l1_pair(kernel: str, machine: str, interleave: int) -> Pair:
    knobs = {"interleave": interleave}
    return Pair(
        _label(kernel, machine, knobs),
        "l1",
        kernel,
        str(R.LEVEL1_KERNELS[kernel]),
        R.level1_schedule("i", _precision(kernel), MACHINES[machine]),
        knobs,
        # over the wire the machine is the schedule's default (AVX2)
        {"ref": "repro.blas:level1_schedule", "args": ["i", _precision(kernel)]},
    )


def l2_pair(kernel: str, machine: str, rows: int, cols: int) -> Pair:
    knobs = {"rows": rows, "cols": cols}
    return Pair(
        _label(kernel, machine, knobs),
        "l2",
        kernel,
        str(R.LEVEL2_KERNELS[kernel]),
        R.level2_schedule("i", _precision(kernel), MACHINES[machine]),
        knobs,
        {"ref": "repro.blas:level2_schedule", "args": ["i", _precision(kernel)]},
    )


def halide_pair(kind: str, machine: Optional[str], knobs: Dict[str, int]) -> Pair:
    make, sched = {
        "blur": (R.make_blur, R.blur_schedule),
        "unsharp": (R.make_unsharp, R.unsharp_schedule),
    }[kind]
    return Pair(
        _label(kind, machine or "default", knobs),
        kind,
        kind,
        str(make()),
        sched(MACHINES[machine]) if machine else sched(),
        dict(knobs),
        {"ref": f"repro.halide:{kind}_schedule"},
    )


def sgemm_pair(machine: str) -> Pair:
    return Pair(
        _label("sgemm", machine, {}),
        "sgemm",
        "sgemm",
        str(R.SGEMM),
        _sgemm_schedule(MACHINES[machine]),
    )


def gemmini_pair() -> Pair:
    # K=64 keeps the interpreter reference affordable; the schedule is the same
    return Pair(
        "gemmini@Gemmini[tile=16]",
        "gemmini",
        "gemmini",
        str(R.make_matmul_kernel(K=64)),
        R.matmul_schedule(),
        {"tile": 16},
    )


def parse(pair: Pair):
    """The pair's object code as a procedure (the frontend's work)."""
    if pair.family == "gemmini":  # its externs are declared by the factory
        return R.make_matmul_kernel(K=64)
    return R.proc_from_source(pair.source)


def family_pairs(rng: random.Random) -> List[Pair]:
    """The 18 pairs of one ``blas_family`` run: every level-1 and level-2
    kind once, in a seeded variant (precision / uplo / trans / diag), on a
    seeded machine, with a seeded value of its cost-flat knob; plus blur,
    unsharp, the Gemmini matmul and sgemm."""
    pairs: List[Pair] = []
    for variants, interleave in L1_KINDS.values():
        pairs.append(l1_pair(rng.choice(variants), rng.choice(list(MACHINES)), interleave))
    for variants, fixed, fixed_value, seeded in L2_KINDS.values():
        knobs = {fixed: fixed_value, seeded: rng.choice(KNOB_VALUES)}
        pairs.append(l2_pair(rng.choice(variants), rng.choice(list(MACHINES)), **knobs))
    pairs.append(halide_pair("blur", rng.choice(list(MACHINES)), {}))
    pairs.append(halide_pair("unsharp", rng.choice(list(MACHINES)), {}))
    pairs.append(gemmini_pair())
    pairs.append(sgemm_pair(rng.choice(list(MACHINES))))
    rng.shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

#: Smallest sizes legal under each family's schedule preconditions; odd
#: level-1/level-2 extents exercise the vector tails.
VERIFY_SIZES = {
    "l1": {"n": 67},
    "l2": {"M": 19, "N": 19},
    "sgemm": {"M": 12, "N": 16, "K": 8},
    "blur": {"H": 32, "W": 256},
    "unsharp": {"H": 32, "W": 256},
    "gemmini": {"N": 16, "M": 16},
}


def copy_args(args: Dict[str, object]) -> Dict[str, object]:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()}


def reference_for(pair: Pair) -> Callable[[Dict[str, object]], None]:
    """The in-place reference semantics of a pair's kernel."""
    if pair.family == "l1":
        return lambda args: R.level1_reference(pair.kernel, args)
    if pair.family == "l2":
        return lambda args: R.level2_reference(pair.kernel, args)
    unscheduled = parse(pair)
    return lambda args: R.run_proc(unscheduled, backend="interp", config_state={}, **args)


def mismatch(got: Dict[str, object], want: Dict[str, object], rtol: float, atol: float) -> Optional[str]:
    """The first tensor argument that differs, as a message; None if equal.
    The tolerance is ``atol + rtol * max|want|`` for the whole tensor, which
    needs two temporaries where ``np.allclose`` needs five (the large
    workloads compare 64 MiB arrays)."""
    for name, w in want.items():
        if not isinstance(w, np.ndarray):
            continue
        g = got[name]
        if g.shape != w.shape or g.dtype != w.dtype:
            return f"argument {name!r} has shape/dtype {g.shape}/{g.dtype}, expected {w.shape}/{w.dtype}"
        if np.array_equal(g, w):
            continue  # untouched inputs, bit-exact outputs
        diff = g - w
        np.abs(diff, out=diff)
        worst = float(diff.max())
        if not worst <= atol + rtol * float(np.abs(w).max()):  # NaN fails too
            return f"argument {name!r} differs from the reference (max abs diff {worst:g})"
    return None


def check_scheduled(pair: Pair, scheduled, seed: int) -> Optional[str]:
    """Run a scheduled procedure on the tree interpreter at its verify size
    and compare against the pair's reference."""
    args = R.make_random_args(scheduled, VERIFY_SIZES[pair.family], seed=seed)
    want = copy_args(args)
    reference_for(pair)(want)
    R.run_proc(scheduled, backend="interp", config_state={}, **args)
    return mismatch(args, want, rtol=2e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# The executed kernels (first_result, kernel_large, kernel_small)
# ---------------------------------------------------------------------------


def _f32(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # [0.5, 1.5): sums stay well-conditioned, products stay normal numbers
    a = rng.random(shape, dtype=np.float32)
    a += np.float32(0.5)
    return a


def _np_blur(args: Dict[str, object]) -> None:
    inp = args["inp"]
    three = np.float32(3.0)
    bx = (inp[:, :-2] + inp[:, 1:-1] + inp[:, 2:]) / three
    args["out"][...] = (bx[:-2] + bx[1:-1] + bx[2:]) / three


def _np_sgemm(args: Dict[str, object]) -> None:
    args["C"] += args["A"] @ args["B"]


@dataclass(frozen=True)
class RunKernel:
    """One executed kernel: how to schedule it, size it, feed it, check it."""

    name: str
    family: str
    small: Dict[str, int]
    large: Dict[str, int]
    make_args: Callable[[np.random.Generator, Dict[str, int]], Dict[str, object]]
    reference: Callable[[Dict[str, object]], None]  # NumPy, any size
    flops: Callable[[Dict[str, int]], float]
    bytes_moved: Callable[[Dict[str, int]], float]  # computed, not measured
    #: the NumPy engine takes seconds per call at the large size
    np_at_large: bool = True
    #: at the large size the kernel streams its tensors once (memory-bound)
    streams: bool = False

    def check_sizes(self, sizes: Dict[str, int]) -> Dict[str, int]:
        """Where outputs are verified: ``sizes`` itself up to 4 MiB of
        tensors, else extents cut to 1/8 (vectors) or 1/4 (matrix sides).
        Same code path and tails; first-touching a fresh GiB of pages costs
        seconds on the sizing box, and verification copies every tensor."""
        if self.bytes_moved(sizes) <= 1 << 24:
            return sizes
        cut = 8 if self.family == "l1" else 4
        return {k: v // cut for k, v in sizes.items()}

    def pair(self) -> Pair:
        if self.family == "l1":
            return l1_pair(self.name, "AVX2", 2)
        if self.family == "l2":
            return l2_pair(self.name, "AVX2", 2, 2)
        if self.family == "sgemm":
            return sgemm_pair("AVX2")
        return halide_pair(self.family, "AVX2", {})


def _l1_args(rng, s):
    n = s["n"]
    return {"n": n, "alpha": 1.25, "x": _f32(rng, n), "y": _f32(rng, n)}


def _l2_args(x_dim: str, y_dim: str):
    def make(rng, s):
        return {
            "M": s["M"],
            "N": s["N"],
            "alpha": 0.75,
            "A": _f32(rng, s["M"], s["N"]),
            "x": _f32(rng, s[x_dim]),
            "y": _f32(rng, s[y_dim]),
        }

    return make


_MN = lambda s: s["M"] * s["N"]  # noqa: E731

RUN_KERNELS: Dict[str, RunKernel] = {
    k.name: k
    for k in (
        RunKernel(
            "saxpy", "l1", {"n": 1024}, {"n": 1 << 23}, _l1_args,
            lambda a: R.level1_reference("saxpy", a),
            lambda s: 2.0 * s["n"], lambda s: 12.0 * s["n"],
            streams=True,
        ),
        RunKernel(
            "sdot", "l1", {"n": 1024}, {"n": 1 << 23},
            lambda rng, s: {
                "n": s["n"],
                "x": _f32(rng, s["n"]),
                "y": _f32(rng, s["n"]),
                "result": np.zeros(1, dtype=np.float32),
            },
            lambda a: R.level1_reference("sdot", a),
            lambda s: 2.0 * s["n"], lambda s: 8.0 * s["n"],
            streams=True,
        ),
        RunKernel(
            "sscal", "l1", {"n": 1024}, {"n": 1 << 23},
            # alpha = -1 keeps repeated in-place scaling away from denormals
            lambda rng, s: {"n": s["n"], "alpha": -1.0, "x": _f32(rng, s["n"])},
            lambda a: R.level1_reference("sscal", a),
            lambda s: 1.0 * s["n"], lambda s: 8.0 * s["n"],
            streams=True,
        ),
        RunKernel(
            "sgemv_n", "l2", {"M": 64, "N": 64}, {"M": 2048, "N": 2048}, _l2_args("N", "M"),
            lambda a: R.level2_reference("sgemv_n", a),
            lambda s: 2.0 * _MN(s), lambda s: 4.0 * (_MN(s) + s["M"] + s["N"]),
        ),
        RunKernel(
            "sgemv_t", "l2", {"M": 64, "N": 64}, {"M": 2048, "N": 2048}, _l2_args("M", "N"),
            lambda a: R.level2_reference("sgemv_t", a),
            lambda s: 2.0 * _MN(s), lambda s: 4.0 * (_MN(s) + s["M"] + s["N"]),
            streams=True,
        ),
        RunKernel(
            "sger", "l2", {"M": 64, "N": 64}, {"M": 2048, "N": 2048}, _l2_args("M", "N"),
            lambda a: R.level2_reference("sger", a),
            lambda s: 2.0 * _MN(s), lambda s: 4.0 * (2 * _MN(s) + s["M"] + s["N"]),
            np_at_large=False, streams=True,
        ),
        RunKernel(
            "sgemm", "sgemm", {"M": 96, "N": 96, "K": 96}, {"M": 576, "N": 576, "K": 576},
            lambda rng, s: {
                **s,
                "A": _f32(rng, s["M"], s["K"]),
                "B": _f32(rng, s["K"], s["N"]),
                "C": _f32(rng, s["M"], s["N"]),
            },
            _np_sgemm,
            lambda s: 2.0 * s["M"] * s["N"] * s["K"],
            lambda s: 4.0 * (s["M"] * s["K"] + s["K"] * s["N"] + 2 * s["M"] * s["N"]),
            np_at_large=False,
        ),
        RunKernel(
            "blur", "blur", {"H": 32, "W": 256}, {"H": 2048, "W": 2048},
            lambda rng, s: {
                **s,
                "inp": _f32(rng, s["H"] + 2, s["W"] + 2),
                "out": np.zeros((s["H"], s["W"]), dtype=np.float32),
            },
            _np_blur,
            lambda s: 3.0 * ((s["H"] + 2) * s["W"] + s["H"] * s["W"]),
            lambda s: 4.0 * ((s["H"] + 2) * (s["W"] + 2) + s["H"] * s["W"]),
            np_at_large=False,
        ),
    )
}


def expected_run(kernel: RunKernel, pristine: Dict[str, object]) -> Dict[str, object]:
    """The kernel's NumPy reference applied to (a copy of) pristine inputs."""
    want = copy_args(pristine)
    kernel.reference(want)
    return want


def check_run(got: Dict[str, object], want: Dict[str, object]) -> Optional[str]:
    # reductions over 2^23 float32 terms accumulate in a different order
    return mismatch(got, want, rtol=5e-3, atol=1e-3)
