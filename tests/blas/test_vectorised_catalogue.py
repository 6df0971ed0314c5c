"""A schedule that claims a SIMD target emits SIMD code.

For every scheduled (kernel, machine) entry of the fold-parity catalogue
(``tests/interp/test_fold_parity.py``; its level-1/level-2 schedules are
memoised in the shared replay cache, so this file re-applies none of them)
the kernel function of the emitted C contains ``_mm256_`` / ``_mm512_``
intrinsics — or the entry is listed in ``STILL_SCALAR`` with the reason its
trace records.  That list may only shrink.
"""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.api import ReplayCache
from repro.backend.codegen import emit_unit
from repro.blas import LEVEL1_KERNELS, level1_schedule
from repro.errors import CodegenError
from repro.machines import AVX2

_spec = importlib.util.spec_from_file_location(
    "fold_parity_catalogue",
    pathlib.Path(__file__).resolve().parents[1] / "interp" / "test_fold_parity.py",
)
_fold_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_fold_parity)

SCHEDULED = {k: thunk for k, thunk in _fold_parity.CASES.items() if not k.endswith("/unscheduled")}

_TEMPORARY = (
    "the loop carries a scalar temporary through memory; vectorising it needs register "
    "temporaries (and, for rot/rotm, a sub instruction and an assign-form FMA)"
)
#: entry -> why its body has no intrinsics yet
STILL_SCALAR = {
    **{
        f"l1/{p}{kernel}/{machine}": _TEMPORARY
        for p in "sd"
        for kernel in ("swap", "rot", "rotm")
        for machine in ("AVX2", "AVX512")
    },
    "gemmini/scheduled": "accelerator commands, not x86 intrinsics (and the C backend emits no configuration state)",
}


def kernel_body(source: str) -> str:
    """The text of the unit's last function: the kernel, without the preamble
    (whose AVX2 helpers are intrinsics text in every 256-bit unit)."""
    return source[source.rindex("\nvoid ") :]


def test_the_allow_list_names_catalogue_entries_only():
    assert set(STILL_SCALAR) <= set(SCHEDULED)
    assert len(STILL_SCALAR) <= 13  # may only shrink


@pytest.mark.parametrize("key", sorted(SCHEDULED))
def test_scheduled_kernel_body_contains_intrinsics(key):
    try:
        body = kernel_body(emit_unit(SCHEDULED[key]()).source)
    except CodegenError:
        body = ""  # no C at all
    vectorised = "_mm256_" in body or "_mm512_" in body
    if key in STILL_SCALAR:
        assert not vectorised, f"{key} vectorises now: take it off STILL_SCALAR"
    else:
        assert vectorised, f"{key}: scheduled for a SIMD machine, but its C body is scalar"


def test_a_scalar_kernel_says_why_in_its_trace():
    """"Why is this kernel scalar" is a query of the trace: the refused
    attempt is rolled back to one ``recovered`` entry with the reason."""
    out, trace = level1_schedule("i", "f32", AVX2).apply_traced(
        LEVEL1_KERNELS["sswap"], cache=ReplayCache()
    )
    assert str(out) == str(LEVEL1_KERNELS["sswap"])  # nothing to apply: the scalar code
    (refusal,) = [e for e in trace.entries if e.kind == "recovered"]
    assert "temporary 'tmp'" in refusal.error
    assert refusal.detail["note"] == "try_op(vectorize)"
