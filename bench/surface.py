"""The only module of the benchmark that imports ``repro``.

The benchmark measures the stack through the functions a user calls, and
through nothing else, so later PRs stay free to rework what lies behind
them.  It deliberately does **not** import the per-module stats/reset
functions the ROADMAP plans to delete (``exec_stats``, ``cache_stats``,
``par_stats``, ``guard_stats``, ``retry_stats``, ``ReplayCache.stats``):
counts come from return values and the benchmark's own bookkeeping.
``bench/tests/test_surface.py`` pins :data:`__all__`.
"""

from __future__ import annotations

from .env import add_src_to_path

add_src_to_path()

try:
    # frontend
    from repro import proc_from_source

    # api: Schedule values (apply / apply_traced / fingerprint), traces, cache
    from repro.api import ReplayCache, Trace, lift_op, replay
    from repro.api.trace import state_hash

    # persist
    from repro.persist import read_record, write_record

    # backend + guard
    from repro.backend.codegen import emit_unit
    from repro.backend.native import call_guarded, clear_memo, compile_native, find_cc

    # interp
    from repro.interp import clear_compile_cache, compile_proc, make_random_args, run_proc

    # tune
    from repro.tune import Tuner

    # service: the client, and the wire functions the traced run times
    from repro.service import ServiceClient
    from repro.service.protocol import decode_message, encode_message, request

    # kernel and schedule factories
    from repro.blas import (
        LEVEL1_KERNELS,
        LEVEL2_KERNELS,
        SGEMM,
        level1_reference,
        level1_schedule,
        level1_space,
        level2_reference,
        level2_schedule,
        schedule_sgemm,
    )
    from repro.gemmini import make_matmul_kernel, matmul_schedule
    from repro.halide import blur_schedule, make_blur, make_unsharp, unsharp_schedule
    from repro.machines import AVX2, AVX512
except ImportError as exc:  # a checkout without src/, or a renamed public name
    raise ImportError(
        f"bench: the repro public surface is incomplete ({exc}); "
        "run from a checkout that has src/repro"
    ) from exc

#: How the service is started (a subprocess, never imported).
SERVICE_MODULE = "repro.service"

__all__ = [
    "AVX2",
    "AVX512",
    "LEVEL1_KERNELS",
    "LEVEL2_KERNELS",
    "ReplayCache",
    "SERVICE_MODULE",
    "SGEMM",
    "ServiceClient",
    "Trace",
    "Tuner",
    "blur_schedule",
    "call_guarded",
    "clear_compile_cache",
    "clear_memo",
    "compile_native",
    "compile_proc",
    "decode_message",
    "emit_unit",
    "encode_message",
    "find_cc",
    "level1_reference",
    "level1_schedule",
    "level1_space",
    "level2_reference",
    "level2_schedule",
    "lift_op",
    "make_blur",
    "make_matmul_kernel",
    "make_random_args",
    "make_unsharp",
    "matmul_schedule",
    "proc_from_source",
    "read_record",
    "replay",
    "request",
    "run_proc",
    "schedule_sgemm",
    "state_hash",
    "unsharp_schedule",
    "write_record",
]
