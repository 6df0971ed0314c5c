"""The import surface is narrow, guarded and pinned."""

import re

from bench import surface
from bench.env import BENCH_DIR

PINNED = [
    "AVX2", "AVX512", "LEVEL1_KERNELS", "LEVEL2_KERNELS", "ReplayCache", "SERVICE_MODULE",
    "SGEMM", "ServiceClient", "Trace", "Tuner", "blur_schedule", "call_guarded",
    "clear_compile_cache", "clear_memo", "compile_native", "compile_proc", "decode_message",
    "emit_unit", "encode_message", "find_cc", "level1_reference", "level1_schedule",
    "level1_space", "level2_reference", "level2_schedule", "lift_op", "make_blur",
    "make_matmul_kernel", "make_random_args", "make_unsharp", "matmul_schedule",
    "proc_from_source", "read_record", "replay", "request", "run_proc", "schedule_sgemm",
    "state_hash", "unsharp_schedule", "write_record",
]

#: what the ROADMAP plans to delete: counts come from return values instead
BANNED = ("exec_stats", "cache_stats", "par_stats", "guard_stats", "retry_stats", "reset_cache_stats",
          "clear_exec_stats", "reset_par_stats", "reset_guard_stats")


def test_surface_is_pinned():
    assert sorted(surface.__all__) == sorted(PINNED)
    for name in PINNED:
        assert hasattr(surface, name), name


def test_only_surface_imports_the_stack():
    importing = re.compile(r"^\s*(from|import)\s+repro\b", re.M)
    offenders = [
        str(p.relative_to(BENCH_DIR))
        for p in BENCH_DIR.rglob("*.py")
        if p.name != "surface.py" and "out" not in p.parts and importing.search(p.read_text())
    ]
    assert offenders == []


def test_no_stats_or_reset_function_is_used():
    for p in BENCH_DIR.rglob("*.py"):
        if "tests" in p.parts or "out" in p.parts:
            continue
        text = p.read_text()
        code = text if p.name != "surface.py" else text.split('"""', 2)[2]
        for name in BANNED:
            assert name not in code, f"{p.name} uses {name}"
        assert ".stats()" not in code.replace("c.stats()", "").replace("stats().get", "")
