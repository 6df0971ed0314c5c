"""Native execution backend: compile generated C, cache it, call it.

The pipeline is ``emit_unit`` (:mod:`repro.backend.codegen`) → system ``cc``
(``-O3 -march=native -fPIC -shared``, lean headers) → ``ctypes.CDLL`` → a callable
:class:`NativeProc` that takes the same argument dict :func:`run_proc` builds
(NumPy buffers pass as data pointers plus explicit per-dimension *element*
strides, so views and transposes work without copies — except as the operand
of a vector instruction, which needs an innermost stride of 1).

Compiled shared objects persist in an on-disk artifact cache keyed — with the
same discipline as the tuner leaderboard — on

    (codegen version, procedure digest, codegen options, cc version, machine id)

where the procedure digest (:func:`procedure_digest`) names the procedure by
its *printed* form (process stable, unlike the in-memory ``struct_hash``) and
by what the print leaves out, such as the bodies and C templates of what it
calls.  The key is derived without lowering anything: ``CODEGEN_VERSION`` is
the one statement that the C emitted for a procedure changed.  A ``.so``
describes its own calling convention (``codegen.ABI_SYMBOL``), so a disk hit
lowers nothing either; ``emit_unit`` runs only when ``cc`` is about to.  Warm
runs therefore skip the compiler entirely, across processes.  Artifacts are
written atomically (temp file + rename), corrupt or truncated ``.so`` files —
and ones that do not describe themselves — are evicted and rebuilt, and the
cache is LRU-pruned so it cannot grow without bound.

Failures split into :class:`CodegenError` (the procedure cannot be lowered),
:class:`NativeUnavailableError` (no ``cc``, compile or load failed — the
interpreter falls back to the compiled NumPy engine),
:class:`NativeRunError` (an argument the kernel cannot take as it is — wrong
dtype or rank, an intrinsic operand whose innermost stride is not 1, a
read-only tensor the kernel writes; ``run_proc`` falls back too) and
:class:`ArtifactPoisonedError` (the artifact crashed or hung its quarantined
first run and is now banned on this machine).

Trust lifecycle
---------------
Loading freshly generated machine code into the host process is a trust
decision, so every artifact carries a status in a ``<key>.meta.json``
sidecar beside its ``.so``: ``new`` (never executed here), ``validated``
(survived a clean first run inside the forked quarantine guard — all later
calls go in-process at full speed), or ``poisoned`` (its guarded first run
died on a signal or hung past the watchdog; :func:`call_guarded` refuses it
forever after without re-entering the guard).  A stamp vouches only for the
binary beside it: a :class:`NativeProc` reads and writes the stamp next to
the file it was loaded from, whatever ``REPRO_NATIVE_CACHE`` says later,
and a binary built where a stamp was left behind starts ``new`` all the
same.  The key-addressed helpers (:func:`artifact_status`,
:func:`mark_poisoned`, ...) name that key's artifact in the current cache
directory.  :func:`call_guarded` is the execution
entry point ``run_proc(backend="c")`` uses; calling a :class:`NativeProc`
directly bypasses the guard (appropriate only for already-trusted contexts
such as the differential test sweep).

Transient failures — the ``cc`` process failing to spawn, the atomic
artifact publish losing a filesystem race — are retried with bounded
exponential backoff (:func:`repro.guard.retry.with_retry`).  All of these
paths honour the named faults of :mod:`repro.guard.faults` (``cc-missing``,
``cc-transient``, ``artifact-corrupt``, ``publish-race``, ``omp-missing``,
and ``kernel-segfault`` / ``kernel-hang``, which fire inside the quarantined
first run, standing in for a miscompiled kernel).

Warm path
---------
``run_proc(backend="c")`` calls :func:`run_native` on every call, so a warm
call must not lower anything, nor resolve anything whose inputs did not
change.  Three tiers, cheapest first: the record of the ladder's outcome,
kept on the immutable ``ProcDef`` root and keyed by the options, the memo
generation, the raw ``CC`` / ``PATH`` / ``REPRO_NATIVE_CACHE`` / ``HOME``
(:func:`repro.config.native_probe`) and the compiler path; the artifact's
path (the artifact key — the procedure digest, memoised on the root — in the
cache directory; structurally equal procedures meet here); the ``.so`` on
disk.  None of them lowers: only a build does, once.  What is fixed for an
options object (its key, its OpenMP twin) or a loaded kernel (its
marshalling plan, its trust stamp's path) is derived once.  A record hit
still checks that its compiler is executable and counts a memo hit; no
record is looked up or written while any fault is armed, or for a ``par``
kernel whose toolchain declined OpenMP; and a warm call runs in-process only
while the kernel's trust stamp is the very memo object it was validated
under — the fast path skips work, never a check.  See
``docs/native-backend.md``.

Lean headers
------------
A unit includes only the x86 sub-headers its ISA level needs, behind the
compiler's own include guard (see ``codegen._preamble``) — most of what
``cc`` costs on a small kernel is parsing the rest.  The guard's name is
compiler-internal, so there is exactly one escape, taken on observation: when
``cc`` rejects a lean unit, the same text is built once more behind the
umbrella header (no probe on the happy path; ``native.lean_rejected`` and a
``lean-headers-rejected`` event, with the compiler's first error line, say it
happened).  If that builds and the error was about the headers, the compiler
is remembered for the process; if the kernel itself called an intrinsic the
lean set does not declare, only that kernel is built wide.  An error no
header can cure (an intrinsic the ``-march`` target lacks) is not retried.
The artifact key names the procedure, not the headers — same kernel, same
machine code — so ``artifact_key(p) == compile_native(p).key`` whichever
headers the build went through.

OpenMP
------
Procedures containing a ``par`` loop automatically compile with ``-fopenmp``
when the toolchain supports it (:func:`openmp_supported`, probed once per
compiler and folded into the artifact key via ``CodegenOptions.openmp`` —
a parallel kernel and its sequential twin never share an artifact).  When
the probe fails, the kernel compiles sequentially and an ``omp-missing``
fallback event is recorded.  The worker count is set per call through the
shared object's own ``omp_set_num_threads`` (``call_guarded(threads=...)``).
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import threading
import tempfile
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import config, obs
from ..errors import BackendError
from ..guard import faults, quarantine
from ..guard.events import record_fallback
from ..guard.retry import with_retry
from ..ir import nodes as N
from ..ir.build import walk
from ..ir.externs import extern_by_name, has_extern
from ..ir.printing import proc_digest
from ..persist import CorruptRecordError, machine_id, read_record, write_record, write_text_atomic
from .codegen import ABI_SYMBOL, CODEGEN_VERSION, CodegenError, CodegenOptions, NativeUnit, _with_wide_headers, emit_unit

__all__ = [
    "NativeError",
    "NativeUnavailableError",
    "NativeRunError",
    "ArtifactPoisonedError",
    "NativeProc",
    "artifact_key",
    "procedure_digest",
    "artifact_status",
    "artifact_meta",
    "mark_validated",
    "mark_poisoned",
    "clear_artifact_status",
    "call_guarded",
    "cache_dir",
    "compile_native",
    "run_native",
    "find_cc",
    "openmp_supported",
    "clear_memo",
    "MAX_CACHE_ENTRIES",
]


class NativeError(BackendError):
    """Base class of native-backend failures.

    ``reason`` (when set) is a stable identifier the degradation ladder
    records on its :class:`~repro.guard.events.FallbackEvent`;
    ``artifact_key`` names the cache entry involved, when one exists.
    """

    reason: Optional[str] = None
    artifact_key: Optional[str] = None


class NativeUnavailableError(NativeError):
    """The native backend cannot produce a callable here (no C compiler, or
    the compile/load step failed).  Callers degrade to the NumPy engine."""


class NativeRunError(NativeError):
    """A compiled kernel was called with arguments that do not fit its
    calling convention (wrong dtype, wrong rank, misaligned strides, a
    non-unit innermost stride on an intrinsic's operand, a read-only tensor
    it writes).  Raised before the kernel runs."""

    reason = "native-run-error"


class ArtifactPoisonedError(NativeError):
    """The artifact crashed (SIGSEGV/SIGFPE/SIGBUS) or hung its quarantined
    first run; it is marked poisoned in the cache and will never be executed
    in-process on this machine.  Callers degrade to the NumPy engine."""

    def __init__(self, message: str, *, reason: str, artifact_key: str):
        super().__init__(message)
        self.reason = reason
        self.artifact_key = artifact_key


MAX_CACHE_ENTRIES = 256
_DEFAULT_OPTIONS = CodegenOptions()  # frozen, so one instance serves every call
_DEFAULT_KEY = _DEFAULT_OPTIONS.key()

# the persistent artifact cache's counters, ``native.*`` in repro.obs
obs.declare(
    "native.memo_hits", "native.disk_hits", "native.compiles", "native.corrupt_evicted",
    "native.pruned", "native.lean_rejected",
)
# tier 1 of the warm path: the record of the ladder's outcome for a procedure,
# kept on its immutable ProcDef root (beside the N.memo entries, so it dies with
# the root): {caller's options key: (generation, probe, cc, kernel, stamp)}.
# Unlike a memo it depends on more than the root, so it is keyed by every other
# input the ladder reads and is checked on every read (_recorded): the memo
# generation (clear_memo() bumps it), the environment probe
# (config.native_probe: CC, PATH, REPRO_NATIVE_CACHE, HOME) and the compiler
# path, which must still be executable.  ``stamp`` is the trust-stamp memo
# object the kernel was last seen validated under, or None.
_RECORD = "_native_record"
_generation = 0
# tier 2: artifact path (<cache directory>/<key>.so) -> NativeProc
# (structurally equal procedures share it)
_memo: Dict[str, "NativeProc"] = {}
_cc_version_memo: Dict[str, str] = {}
_which_memo: Dict[Tuple[str, Optional[str]], str] = {}  # (CC, PATH) -> compiler path
# one lock for the in-process memo maps, which are shared by every thread
# that compiles or trust-checks an artifact (e.g. schedule-service workers).
# Single-key reads of the maps are atomic and go lock-free on the warm path
_lock = threading.Lock()


def clear_memo() -> None:
    """Drop the in-process memos — every procedure's record (by bumping the
    generation it is keyed on), the artifact-path tier, artifact trust
    stamps and the compiler lookup re-resolve from disk, as a fresh process
    would (cached ctypes handles stay loaded)."""
    global _generation
    with _lock:
        _generation += 1
        _memo.clear()
        _status_memo.clear()
        _which_memo.clear()


def cache_dir() -> str:
    """The artifact cache directory (override with ``REPRO_NATIVE_CACHE``)."""
    return config.native_cache_dir()


def find_cc() -> Optional[str]:
    """Absolute path of the system C compiler, or None.

    Fault site: the ``cc-missing`` fault makes this report no compiler, so
    every consumer (execution ladder, differential leg, tuner, benchmarks)
    exercises its no-toolchain degradation path.  The ``which`` lookup is
    memoised per ``(CC, PATH)``; the fault site and both variables are read
    on every call, and a memoised path that is no longer executable (the
    compiler was removed) is looked up afresh."""
    if faults.should_fire("cc-missing"):
        return None
    name, path = config.cc_name(), config.search_path()
    probe = (name, path)
    cc = _which_memo.get(probe)
    if cc is None or not os.access(cc, os.X_OK):
        cc = shutil.which(name, path=path)
        with _lock:
            if cc is None:  # an absent compiler is looked for again next call
                _which_memo.pop(probe, None)
            else:
                _which_memo[probe] = cc
    return cc


_omp_memo: Dict[str, bool] = {}
# compilers seen to reject a lean-header unit and accept its umbrella-header
# twin; like _omp_memo, an observation about the toolchain that outlives
# clear_memo()
_lean_rejected: Dict[str, bool] = {}
_CC_TIMEOUT_S = 300


def openmp_supported(cc: str) -> bool:
    """Whether ``cc`` can build with ``-fopenmp`` (probed once per compiler
    by compiling a one-line program, then memoized).

    Fault site: ``omp-missing`` forces False without touching the memo, so
    ``par`` kernels exercise their sequential-compile degradation and the
    probe result recovers as soon as the fault disarms."""
    if faults.should_fire("omp-missing"):
        return False
    with _lock:
        got = _omp_memo.get(cc)
    if got is not None:
        return got
    tmpdir = tempfile.mkdtemp(prefix="repro-omp-probe-")
    try:
        c_path = os.path.join(tmpdir, "probe.c")
        with open(c_path, "w") as f:
            f.write(
                "#include <omp.h>\n"
                "int main(void) { return omp_get_max_threads() > 0 ? 0 : 1; }\n"
            )
        try:
            proc = subprocess.run(
                [cc, "-fopenmp", c_path, "-o", os.path.join(tmpdir, "probe.out")],
                capture_output=True,
                text=True,
                timeout=60,
            )
            got = proc.returncode == 0
        except (OSError, subprocess.SubprocessError):
            got = False
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with _lock:
        _omp_memo[cc] = got
    return got


def _has_par(root) -> bool:
    return N.memo(
        root,
        "_has_par_cache",
        lambda r: any(isinstance(n, N.For) and n.pragma == "par" for n, _ in walk(r)),
    )


def _resolve_openmp(
    root, options: CodegenOptions, cc: Optional[str], *, record: bool
) -> CodegenOptions:
    """The effective codegen options for ``root``: ``openmp=True`` when the
    procedure contains a ``par`` loop and the toolchain can honour it.  With
    ``record``, an unsupported toolchain logs an ``omp-missing`` fallback
    event (stage ``c-par->c-seq``) — the kernel still compiles, sequentially.
    """
    if options.openmp or not _has_par(root):
        return options
    if cc is not None and openmp_supported(cc):
        return options.with_openmp()
    if record:
        record_fallback(
            root.name,
            "c-par->c-seq",
            "omp-missing",
            detail="toolchain cannot build with -fopenmp; par loops compiled sequentially",
        )
    return options


def cc_version(cc: str) -> str:
    got = _cc_version_memo.get(cc)
    if got is None:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30, check=True
            ).stdout
            got = out.splitlines()[0].strip() if out else "unknown"
        except (OSError, subprocess.SubprocessError):
            got = "unknown"
        _cc_version_memo[cc] = got
    return got


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_key(procedure, options: Optional[CodegenOptions] = None, cc: Optional[str] = None) -> str:
    """The persistent cache key for one procedure's compiled artifact.

    Stable across processes: every component is either a version constant, a
    digest of printed text, or a machine/toolchain identifier.  Nothing is
    lowered to derive it.
    """
    root = procedure._root if hasattr(procedure, "_root") else procedure
    options = options or _DEFAULT_OPTIONS
    cc = cc or find_cc() or "cc"
    options = _resolve_openmp(
        root, options, cc if os.path.exists(cc) else None, record=False
    )
    return _key_of(root, options, cc)


def _key_of(root, options: CodegenOptions, cc: str) -> str:
    """The artifact key of ``root`` (``options`` resolved)."""
    parts = "|".join(
        [
            f"codegen={CODEGEN_VERSION}",
            f"proc={procedure_digest(root)}",
            f"opts={options.key()}",
            f"cc={cc_version(cc) if os.path.exists(cc) else cc}",
            f"machine={machine_id()}",
        ]
    )
    return _sha(parts)[:32]


def procedure_digest(root) -> str:
    """What the artifact key knows of a procedure: a sha256 over its
    printed-form digest (:func:`~repro.ir.printing.proc_digest`, the replay
    chain's ``state_hash``) and what that print leaves out — its ``@instr``
    template, the same digest of the procedure each call site calls, the C
    template of each extern it uses, and each use of a symbol that is not
    the innermost binder of its name (the print would read it as that one).
    With ``CODEGEN_VERSION`` this determines the emitted C; it is memoised on
    the immutable root, so only a procedure's first key pays for it."""
    return N.memo(root, "_artifact_digest", _digest)


_USES = (N.Read, N.WindowExpr, N.StrideExpr, N.Assign, N.Reduce)


def _digest(root) -> str:
    parts = [proc_digest(root)]
    if root.instr is not None:
        parts.append(f"instr={root.instr.c_instr!r},{root.instr.c_global!r},{root.instr.intrinsic}")
    uses = 0

    def visit(n, scope) -> None:  # scope: name -> the symbols it binds, innermost last
        nonlocal uses
        t = type(n)
        if t in _USES:
            bound = scope.get(n.name.name, ())
            if not bound or bound[-1] is not n.name:
                # which binder of its name the use means, outermost first (-1: none in scope)
                parts.append(f"bind={uses}:{bound.index(n.name) if n.name in bound else -1}")
            uses += 1
        elif t is N.Extern:
            parts.append(f"extern={n.fname}:{extern_by_name(n.fname).c_template if has_extern(n.fname) else ''}")
        elif t is N.Call:
            parts.append(f"call={procedure_digest(getattr(n.proc, '_root', n.proc))}")
        elif t is N.Alloc:
            for d in getattr(n.typ, "shape", ()):
                visit(d, scope)
        for attr, is_list in N.child_fields(n):
            if t is N.For and attr == "body":
                scope = _bind(scope, n.iter)
            child = getattr(n, attr)
            if not is_list:
                if child is not None:
                    visit(child, scope)
                continue
            inner = scope  # a statement binds for the ones after it in its block
            for c in child:
                visit(c, inner)
                if type(c) in (N.Alloc, N.WindowStmt):
                    inner = _bind(inner, c.name)

    scope: Dict[str, tuple] = {}
    for a in root.args:
        for d in getattr(a.typ, "shape", ()):
            visit(d, scope)
        scope = _bind(scope, a.name)
    for p in root.preds:
        visit(p, scope)
    visit(root, scope)
    return _sha("|".join(parts))


def _bind(scope: Dict[str, tuple], sym) -> Dict[str, tuple]:
    return {**scope, sym.name: scope.get(sym.name, ()) + (sym,)}


# ---------------------------------------------------------------------------
# Artifact trust metadata (the quarantine lifecycle)
# ---------------------------------------------------------------------------

STATUS_NEW = "new"
STATUS_VALIDATED = "validated"
STATUS_POISONED = "poisoned"

_status_memo: Dict[str, Mapping[str, object]] = {}  # stamp path -> parsed sidecar (read-only)


def _stamp_path(so_path: str) -> str:
    """Where the trust stamp of the artifact at ``so_path`` lives: beside it.
    Every reader and writer of a stamp derives its path here, so a stamp
    vouches only for the binary next to it."""
    return so_path[: -len(".so")] + ".meta.json"


def _key_stamp(key: str) -> str:
    """The stamp of ``key``'s artifact in the current cache directory."""
    return _stamp_path(os.path.join(cache_dir(), f"{key}.so"))


def _read_stamp(path: str) -> Mapping[str, object]:
    memo = _status_memo.get(path)
    if memo is not None:
        return memo
    meta = {"status": STATUS_NEW}
    try:
        data = read_record(path)
        if isinstance(data, dict) and data.get("status") in (
            STATUS_VALIDATED,
            STATUS_POISONED,
        ):
            meta = data
    except (OSError, CorruptRecordError):
        # a torn or missing trust stamp reads as "never executed here":
        # the artifact simply re-enters quarantine, which is safe
        pass
    meta = MappingProxyType(meta)
    with _lock:
        _status_memo[path] = meta
    return meta


def _write_stamp(path: str, meta: dict) -> None:
    # a trust stamp is a real persistence decision (poisoned must survive
    # kill -9), so it goes through the checksummed crash-consistent store
    write_record(path, meta)
    with _lock:
        _status_memo[path] = MappingProxyType(dict(meta))


def _drop_stamp(path: str) -> None:
    with _lock:
        _status_memo.pop(path, None)
    try:
        os.unlink(path)
    except OSError:
        pass


def artifact_meta(key: str) -> Mapping[str, object]:
    """The trust sidecar of ``key``'s artifact in the current cache
    directory: at least ``{"status": ...}``, plus ``"reason"`` for poisoned
    entries.  Missing or corrupt sidecars read as ``new`` (never executed on
    this machine).  The result is the memoised sidecar itself behind a
    read-only view: sidecars are replaced whole, never edited, so the memo
    read needs no lock and no copy."""
    return _read_stamp(_key_stamp(key))


def artifact_status(key: str) -> str:
    """``"new"`` | ``"validated"`` | ``"poisoned"`` for one artifact key."""
    return artifact_meta(key)["status"]


def mark_validated(key: str) -> None:
    """Stamp the artifact trusted: its quarantined first run exited cleanly,
    so all later calls may go in-process at full speed."""
    _write_stamp(_key_stamp(key), {"status": STATUS_VALIDATED})


def mark_poisoned(key: str, reason: str) -> None:
    """Ban the artifact: its quarantined first run crashed or hung.  The
    guard is never re-entered for a poisoned key — callers degrade straight
    to the NumPy engine."""
    _write_stamp(_key_stamp(key), {"status": STATUS_POISONED, "reason": reason})


def clear_artifact_status(key: str) -> None:
    """Forget an artifact's trust stamp (tests / benchmarks re-measuring the
    quarantine path)."""
    _drop_stamp(_key_stamp(key))


# ---------------------------------------------------------------------------
# The callable
# ---------------------------------------------------------------------------


# a scalar argspec tag -> (its C type, what a value is converted with)
_SCALARS = {
    "i64": (ctypes.c_int64, int),
    "i32": (ctypes.c_int32, int),
    "f64": (ctypes.c_double, float),
    "bool": (ctypes.c_bool, bool),
}


def _marshalling_plan(argspec: Tuple[tuple, ...]) -> Tuple[tuple, ...]:
    """One step per argument, derived once per loaded kernel: ``(name, dtype,
    itemsize, rank, unit_stride, written, None)`` for a tensor and ``(name,
    None, 0, 0, False, False, convert)`` for a scalar."""
    plan = []
    for spec in argspec:
        if spec[0] == "tensor":
            _tag, dtype_name, rank, name, unit_stride, written = spec
            dtype = np.dtype(dtype_name)
            plan.append((name, dtype, dtype.itemsize, rank, unit_stride, written, None))
        else:
            plan.append((spec[1], None, 0, 0, False, False, _SCALARS[spec[0]][1]))
    return tuple(plan)


@dataclass
class NativeProc:
    """A loaded, callable compiled kernel.

    ``key`` is the artifact's persistent cache key and ``so_path`` the file
    it was loaded from; its trust stamp lives beside that file.  Calling the
    object directly runs the machine code in-process with no guard;
    untrusted first runs go through :func:`call_guarded`.
    """

    name: str
    argspec: Tuple[tuple, ...]
    so_path: str
    key: str = ""
    _fn: object = None
    # the shared object's own omp_set_num_threads, when it was linked
    # against the OpenMP runtime (par kernels built with -fopenmp)
    _omp_set: object = None
    _plan: Tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    # the trust stamp beside ``so_path``: the only one call_guarded reads or
    # writes for this kernel, wherever the cache directory points later
    _stamp: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._plan = _marshalling_plan(self.argspec)
        self._stamp = _stamp_path(self.so_path)

    def __call__(self, values: Dict[str, object], threads: Optional[int] = None) -> None:
        """Run the kernel on a ``{arg name: value}`` dict (tensors in place).

        Every tensor's type, dtype, rank and strides are checked on every
        call, and before anything runs: an intrinsic's operand must have an
        innermost stride of 1, and a tensor the kernel writes must be
        writable (:class:`NativeRunError` otherwise).  ``threads`` bounds the
        OpenMP worker count of ``par`` loops; it is a no-op for artifacts
        built without OpenMP."""
        # plain ints and floats: ctypes converts them through the argtypes
        # declared once at load time (see _load)
        args: List[object] = []
        append = args.append
        for name, dtype, itemsize, rank, unit_stride, written, convert in self._plan:
            v = values[name]
            if convert is not None:
                append(convert(v))
                continue
            if not isinstance(v, np.ndarray):
                raise NativeRunError(f"{self.name}: argument {name!r} must be a numpy array")
            if v.dtype is not dtype and v.dtype != dtype:
                raise NativeRunError(
                    f"{self.name}: argument {name!r} has dtype {v.dtype}, expected {dtype}"
                )
            strides = v.strides
            if len(strides) != rank:
                raise NativeRunError(
                    f"{self.name}: argument {name!r} has rank {len(strides)}, expected {rank}"
                )
            try:
                # a writable C-contiguous array lends its buffer, a third of
                # what building ``v.ctypes`` costs
                append(ctypes.addressof(ctypes.c_char.from_buffer(v)))
            except (TypeError, ValueError):  # read-only, not C-contiguous, or empty
                if written and not v.flags.writeable:
                    raise NativeRunError(
                        f"{self.name}: argument {name!r} is read-only, and the kernel writes it"
                    ) from None
                append(v.ctypes.data)
            for s in strides:
                step, rest = divmod(s, itemsize)
                if rest:
                    raise NativeRunError(f"{self.name}: argument {name!r} has a sub-element stride")
                append(step)
            if unit_stride and step != 1 and v.shape[-1] > 1:
                raise NativeRunError(
                    f"{self.name}: argument {name!r} has an innermost stride of {step} elements; "
                    "the kernel's vector instructions need 1"
                )
        if threads is not None and self._omp_set is not None:
            self._omp_set(int(threads))
        self._fn(*args)


def _argtypes(argspec: Tuple[tuple, ...]) -> List[object]:
    """The C signature of a kernel: a data pointer plus one element stride
    per dimension for every tensor, the scalar's own type otherwise."""
    out: List[object] = []
    for spec in argspec:
        if spec[0] == "tensor":
            out.append(ctypes.c_void_p)
            out.extend([ctypes.c_int64] * spec[2])
        else:
            out.append(_SCALARS[spec[0]][0])
    return out


# ---------------------------------------------------------------------------
# Build + cache
# ---------------------------------------------------------------------------


def _load(so_path: str, key: str) -> NativeProc:
    """Load an artifact as the kernel it says it is: the entry name and
    argspec come from the unit's own :data:`~repro.backend.codegen.ABI_SYMBOL`
    constant, so nothing is lowered.  Raises ``OSError`` for a file that is
    not a loadable object or does not describe itself (say, a ``.so`` of an
    older codegen); the caller evicts and rebuilds either."""
    lib = ctypes.CDLL(so_path)
    try:
        omp_set = lib.omp_set_num_threads
        omp_set.restype = None
        omp_set.argtypes = [ctypes.c_int]
    except AttributeError:
        omp_set = None  # built without -fopenmp
    try:
        abi = json.loads(ctypes.string_at(ctypes.addressof(ctypes.c_char.in_dll(lib, ABI_SYMBOL))))
        name, argspec = abi["name"], tuple(tuple(spec) for spec in abi["argspec"])
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = _argtypes(argspec)
        return NativeProc(name, argspec, so_path, key, fn, omp_set)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        # unmapped again, so the file rebuilt at this path is what loads next
        _ctypes.dlclose(lib._handle)
        raise OSError(f"{os.path.basename(so_path)} does not describe its calling convention: {exc}") from exc


def _build(cc: str, options: CodegenOptions, c_path: str, so_path: str) -> Optional[str]:
    """Run ``cc`` on ``c_path`` and publish the result at ``so_path``.
    Returns None, or the compiler's stderr when it rejected the source (a
    deterministic outcome: nothing is published, nothing is retried)."""
    fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
    os.close(fd)
    cmd = [cc, *options.cflags(), "-fPIC", "-shared", "-o", tmp_so, c_path, "-lm"]
    try:
        # spawning cc can fail transiently (resource pressure, racing PATH
        # changes) and is retried; a hung cc is not.  Fault site: cc-transient.
        def invoke():
            if faults.should_fire("cc-transient"):
                raise OSError("injected transient cc failure (fault: cc-transient)")
            return subprocess.run(cmd, capture_output=True, text=True, timeout=_CC_TIMEOUT_S)

        try:
            proc = with_retry(invoke, label="cc-invoke")
        except OSError as exc:
            raise NativeUnavailableError(f"cannot invoke {cc}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            err = NativeUnavailableError(f"{cc} did not finish within {_CC_TIMEOUT_S:g}s")
            err.reason = "cc-timeout"
            raise err from exc
        obs.add("native.compiles")
        if proc.returncode != 0:
            return proc.stderr

        # atomic publish; readers never see a torn .so.  The rename can lose
        # a transient race on some filesystems.  Fault site: publish-race.
        def publish():
            if faults.should_fire("publish-race"):
                raise OSError("injected cache publish race (fault: publish-race)")
            os.replace(tmp_so, so_path)

        try:
            with_retry(publish, label="artifact-publish")
        except OSError as exc:
            raise NativeUnavailableError(
                f"cannot publish artifact {os.path.basename(so_path)}: {exc}"
            ) from exc
        return None
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)


# cc's first error on a rejected lean unit.  An intrinsic its target cannot
# inline fails behind any header; a name the kernel calls and the lean set does
# not declare is cured by the umbrella header, but is the kernel's doing (an
# error inside an ``*intrin.h`` is the compiler's, whatever it says).
_TARGET_MISMATCH = re.compile(r"always_inline")
_UNDECLARED_IN_UNIT = re.compile(r"^(?!\S*intrin\.h:).*(?:implicit declaration|undeclared)")


def _build_unit(unit: NativeUnit, options: CodegenOptions, cc: str, key: str, so_path: str) -> None:
    """Build the lean ``unit`` into ``so_path``, leaving the text that was
    compiled in the ``.c`` beside it.  One escape (see the module docstring):
    a rejected lean unit is rebuilt once behind the umbrella header, and a
    compiler that refused the lean headers themselves is remembered."""
    c_path = so_path[: -len(".so")] + ".c"
    wide = _with_wide_headers(unit)
    lean = wide is not unit and not _lean_rejected.get(cc)  # a scalar unit has no x86 header to widen
    write_text_atomic(c_path, (unit if lean else wide).source)
    stderr = _build(cc, options, c_path, so_path)
    if stderr is not None and lean:
        first_error = next((ln for ln in stderr.splitlines() if "error:" in ln), stderr.strip())
        if not _TARGET_MISMATCH.search(first_error):
            write_text_atomic(c_path, wide.source)
            stderr = _build(cc, options, c_path, so_path)
            if stderr is None:
                if not _UNDECLARED_IN_UNIT.search(first_error):
                    with _lock:
                        _lean_rejected[cc] = True
                obs.add("native.lean_rejected")
                record_fallback(
                    unit.name, "c-lean->c-wide", "lean-headers-rejected",
                    artifact_key=key, detail=first_error,
                )
    if stderr is not None:
        tail = "\n".join(stderr.splitlines()[-12:])
        raise NativeUnavailableError(f"cc failed for {key}.c:\n{tail}")


def _prune(directory: str, keep: int) -> None:
    """Drop the least-recently-used artifacts beyond ``keep`` entries (hits
    touch the ``.so`` mtime, so mtime order is use order)."""
    try:
        sos = [e for e in os.scandir(directory) if e.name.endswith(".so")]
    except OSError:
        return
    if len(sos) <= keep:
        return
    sos.sort(key=lambda e: e.stat().st_mtime)
    for e in sos[: len(sos) - keep]:
        stem = e.path[: -len(".so")]
        for victim in (e.path, stem + ".c"):
            try:
                os.unlink(victim)
            except OSError:
                pass
        _drop_stamp(_stamp_path(e.path))
        obs.add("native.pruned")


def _probe() -> Optional[tuple]:
    """What a record is keyed on besides the root, the options and the
    generation — or None while any fault is armed, in the environment or by
    :func:`~repro.guard.faults.inject`: every fault site is then consulted
    on every call, and nothing is recorded or looked up."""
    return None if faults._injected else config.native_probe()


def _recorded(root, options_key: str, probe) -> Optional[tuple]:
    """``root``'s record under the options of ``options_key`` when every
    input it was made from is unchanged and its compiler is still
    executable, else None."""
    records = root.__dict__.get(_RECORD)
    if records is None or probe is None:
        return None
    record = records.get(options_key)
    if record is None or record[0] != _generation or record[1] != probe:
        return None
    # a removed compiler degrades on the next call, as find_cc would see
    if not os.access(record[2], os.X_OK):
        return None
    return record


def _validated_stamp(kernel: "NativeProc"):
    """The memoised trust stamp of ``kernel`` when it says validated, else
    None (compared by identity: any re-stamp replaces the memo object)."""
    meta = _status_memo.get(kernel._stamp)
    return meta if meta is not None and meta["status"] == STATUS_VALIDATED else None


def compile_native(procedure, options: Optional[CodegenOptions] = None) -> NativeProc:
    """Compile (or fetch from cache) a procedure's native kernel, in the
    cache directory of this call (:func:`cache_dir`, read on every call).

    Raises :class:`CodegenError` when the procedure cannot be lowered to C
    and :class:`NativeUnavailableError` when no working toolchain is
    available; both are non-destructive (nothing half-built is left behind).
    """
    root = procedure._root if hasattr(procedure, "_root") else procedure
    options = options or _DEFAULT_OPTIONS
    probe = _probe()
    record = _recorded(root, options.key(), probe)
    if record is not None:
        obs.add("native.memo_hits")
        return record[3]
    return _ladder(root, options, probe)


def _ladder(root, options: CodegenOptions, probe) -> NativeProc:
    """The full resolution: compiler, OpenMP, cache directory, then tiers 2
    and 3.  The only writer of ``root``'s record, and only when ``probe``
    held throughout and no per-call event must be recorded."""
    generation = _generation
    cc = find_cc()
    if cc is None:
        err = NativeUnavailableError("no C compiler on PATH (set $CC or install cc)")
        err.reason = "cc-missing"
        raise err
    # every miss consults both toolchain fault sites (find_cc above,
    # openmp_supported here) before any memo is looked at
    resolved = _resolve_openmp(root, options, cc, record=True)
    proc = _resolve(root, resolved, cc, cache_dir())
    # a par kernel whose toolchain declined OpenMP records c-par->c-seq on
    # every call, so it never gets a record
    if probe is not None and (resolved.openmp or not _has_par(root)) and _probe() == probe:
        root.__dict__.setdefault(_RECORD, {})[options.key()] = (
            generation, probe, cc, proc, _validated_stamp(proc),
        )
    return proc


def _resolve(root, options: CodegenOptions, cc: str, directory: str) -> NativeProc:
    """Tiers 2 and 3 of ``root`` (``options`` resolved) in ``directory``: a
    switched ``REPRO_NATIVE_CACHE`` resolves, builds and is judged there."""
    key = _key_of(root, options, cc)
    so_path = os.path.join(directory, f"{key}.so")
    memo = _memo.get(so_path)
    if memo is not None:
        obs.add("native.memo_hits")
        return memo

    # a poisoned artifact is never even dlopen'ed again (loading runs its
    # init sections — that is already execution)
    stamp = _stamp_path(so_path)
    meta = _read_stamp(stamp)
    if meta["status"] == STATUS_POISONED:
        raise ArtifactPoisonedError(
            f"artifact {key} is poisoned on this machine "
            f"({meta.get('reason', 'unknown reason')})",
            reason="poisoned-artifact",
            artifact_key=key,
        )

    proc = None
    if os.path.exists(so_path):
        try:
            # fault site: stand in for a truncated/garbled .so on disk.  The
            # corruption is simulated as the load failure it causes (dlopen
            # caches by path in-process, so physically corrupting the file
            # cannot fail a re-load of an already-mapped artifact).
            if faults.should_fire("artifact-corrupt"):
                raise OSError("injected corrupt artifact (fault: artifact-corrupt)")
            proc = _load(so_path, key)
            obs.add("native.disk_hits")
            os.utime(so_path)  # LRU touch
        except OSError:
            # corrupt or truncated artifact: evict and rebuild
            obs.add("native.corrupt_evicted")
            try:
                os.unlink(so_path)
            except OSError:
                pass
    if proc is None:
        unit = emit_unit(root, options)  # may raise CodegenError
        os.makedirs(directory, exist_ok=True)
        # a rebuilt binary re-enters quarantine: the stamp of whatever was at
        # this path before (a corrupt or lost predecessor) does not vouch for it
        _drop_stamp(stamp)
        _build_unit(unit, options, cc, key, so_path)
        try:
            proc = _load(so_path, key)
        except OSError as exc:
            raise NativeUnavailableError(f"cannot load freshly built {so_path}: {exc}") from exc
        _prune(directory, MAX_CACHE_ENTRIES)
    with _lock:
        # a thread that lost a build race adopts the winner's handle, so one
        # procedure resolves to one object however many threads compiled it
        return _memo.setdefault(so_path, proc)


# ---------------------------------------------------------------------------
# Guarded execution (the run_proc entry point)
# ---------------------------------------------------------------------------


def call_guarded(kernel: NativeProc, values: Dict[str, object], threads: Optional[int] = None) -> None:
    """Execute ``kernel`` with first-run quarantine, as its own trust stamp
    (the one beside the ``.so`` it was loaded from) says:

    * ``poisoned`` artifacts raise :class:`ArtifactPoisonedError` immediately
      — the guard is never re-entered for a known-bad kernel;
    * ``validated`` artifacts run in-process at full speed, no guard;
    * ``new`` artifacts first run inside the forked subprocess guard
      (:func:`repro.guard.quarantine.run_guarded`).  A clean exit stamps the
      artifact validated and re-executes in-process (the child's writes were
      copy-on-write and discarded); a signal death or watchdog timeout
      poisons it and raises :class:`ArtifactPoisonedError`; a Python-level
      exception in the child is deterministic, leaves the status untouched,
      and is re-raised as :class:`NativeRunError`.

    ``REPRO_GUARD_TIMEOUT`` sets the watchdog; ``REPRO_GUARD=off`` skips the
    quarantine entirely (no validation stamp is written — the next
    guarded-mode call will quarantine as usual).  Neither is read for a
    validated kernel.  ``threads`` bounds the OpenMP worker count of ``par``
    loops (no-op for artifacts built without OpenMP).
    """
    meta = _read_stamp(kernel._stamp)
    if meta["status"] == STATUS_POISONED:
        raise ArtifactPoisonedError(
            f"{kernel.name}: artifact {kernel.key} is poisoned on this machine "
            f"({meta.get('reason', 'unknown reason')})",
            reason="poisoned-artifact",
            artifact_key=kernel.key,
        )
    if meta["status"] != STATUS_VALIDATED and config.guard_enabled():
        # the guard forks, and libgomp is not fork-safe once the parent has
        # ever run a parallel region (the child inherits a thread pool whose
        # threads do not exist) — so the quarantined validation run of an
        # OpenMP artifact is forced serial; a 1-thread team runs inline on
        # the calling thread and never touches the pool
        guard_threads = 1 if kernel._omp_set is not None else threads

        def first_run():
            if faults.should_fire("kernel-segfault"):
                os.kill(os.getpid(), signal.SIGSEGV)
            if faults.should_fire("kernel-hang"):
                while True:
                    time.sleep(3600)
            kernel(values, threads=guard_threads)

        report = quarantine.run_guarded(first_run)
        if report.status == "ok":
            _write_stamp(kernel._stamp, {"status": STATUS_VALIDATED})
        elif report.status == "error":
            raise NativeRunError(
                f"{kernel.name}: guarded first run raised: {report.error}"
            )
        else:
            reason = "kernel-hang" if report.status == "timeout" else "kernel-segfault"
            _write_stamp(kernel._stamp, {"status": STATUS_POISONED, "reason": f"{reason}: {report.error}"})
            raise ArtifactPoisonedError(
                f"{kernel.name}: quarantined first run failed ({report.error}); "
                f"artifact {kernel.key} poisoned",
                reason=reason,
                artifact_key=kernel.key,
            )
    kernel(values, threads=threads)


def run_native(procedure, values: Dict[str, object], threads: Optional[int] = None) -> None:
    """Run ``procedure``'s kernel on ``values`` as ``run_proc(backend="c")``
    does: :func:`compile_native`, then :func:`call_guarded`.  A warm call is
    one checked lookup: when the record holds (:func:`compile_native`'s
    tier 1) and the kernel's trust stamp is still the very memo object it
    was validated under, the kernel runs in-process at once.  Otherwise the
    whole ladder runs, and a clean validated run refreshes the record's
    stamp.  Raises as :func:`compile_native` and :func:`call_guarded` do."""
    root = procedure._root if hasattr(procedure, "_root") else procedure
    probe = _probe()
    record = _recorded(root, _DEFAULT_KEY, probe)
    if record is None:
        kernel = _ladder(root, _DEFAULT_OPTIONS, probe)
    else:
        obs.add("native.memo_hits")
        kernel = record[3]
        if record[4] is not None and _status_memo.get(kernel._stamp) is record[4]:
            kernel(values, threads=threads)
            return
    call_guarded(kernel, values, threads=threads)
    record = _recorded(root, _DEFAULT_KEY, probe)
    if record is not None and record[3] is kernel:
        stamp = _validated_stamp(kernel)
        if stamp is not None and stamp is not record[4]:
            root.__dict__[_RECORD][_DEFAULT_KEY] = record[:4] + (stamp,)
