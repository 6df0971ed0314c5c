"""The helpers of a unit's preamble compute what the interpreter computes,
and they are straight-line code, so a loop that calls one has nothing for
``cc`` to unswitch.  Integer ``/`` and ``%`` on the C rung are Python's floor
division and modulo for every sign of either operand, in index arithmetic
(``int64_t``, constant and run-time divisors) and on ``i32`` data — through
the helpers, or through a shift and a mask for a positive power-of-two
constant; a masked (tail) instruction touches exactly the lanes below its
bound, for any count."""
from __future__ import annotations

import re

import numpy as np
import pytest

from repro import proc_from_source
from repro.backend import codegen
from repro.backend.native import clear_memo, compile_native, find_cc
from repro.interp import run_proc
from repro.machines import AVX2, AVX512

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    """Built here, from this checkout's C: an artifact key names the
    procedure, so a shared cache could answer with an older build of it."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    clear_memo()
    yield
    clear_memo()


def _host_has(flag: str) -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return flag in f.read().split()
    except OSError:
        return False

DIVISORS = (1, -1, 2, -2, 3, -3, 4, -4, 7, -7, 8, -8, 16, 64)
POWERS_OF_TWO = (1, 2, 4, 8, 16, 64)  # a constant one is a shift and a mask
NUMERATORS = tuple(range(-20, 21)) + tuple(
    s * ((1 << 62) + d) for s in (1, -1) for d in (-9, -8, -7, -1, 0, 1, 7, 8, 9)
)
# near the i32 extremes; -2**31 is left out, since -2**31 / -1 overflows i32
I32_NUMERATORS = tuple(range(-20, 21)) + tuple(
    s * ((1 << 31) - d) for s in (1, -1) for d in (1, 2, 3, 7, 8, 9)
)


def _index_proc(d: int):
    """Checks ``n / d`` and ``n % d`` against Python's, with ``d`` a constant
    (what a loop bound divides by) and the same ``d`` passed at run time."""
    return proc_from_source(
        "def floor_index(n: index, d: index, q: index, r: index, ok: i32[4] @ DRAM):\n"
        f"    if n / ({d}) == q:\n"
        "        ok[0] = 1\n"
        f"    if n % ({d}) == r:\n"
        "        ok[1] = 1\n"
        "    if n / d == q:\n"
        "        ok[2] = 1\n"
        "    if n % d == r:\n"
        "        ok[3] = 1\n"
    )


@needs_cc
@pytest.mark.parametrize("d", DIVISORS)
def test_index_floor_division_matches_python_for_every_sign(d):
    proc = _index_proc(d)
    if d in POWERS_OF_TWO:
        source = codegen.emit_unit(proc).source
        assert f"(int64_t)(n) >> {d.bit_length() - 1})" in source and f"(int64_t)(n) & {d - 1})" in source
    kernel = compile_native(proc)  # the C rung itself: no fallback to hide behind
    for n in NUMERATORS:
        args = {"n": n, "d": d, "q": n // d, "r": n % d}
        got, want = np.zeros(4, np.int32), np.zeros(4, np.int32)
        kernel({**args, "ok": got})
        run_proc(proc, backend="interp", **args, ok=want)
        assert want.tolist() == [1, 1, 1, 1], (n, d, "interpreter")
        assert got.tolist() == [1, 1, 1, 1], (n, d, "C")


@needs_cc
def test_i32_floor_division_matches_python_for_every_sign():
    proc = proc_from_source(
        "def floor_i32(n: size, a: i32[n] @ DRAM, b: i32[n] @ DRAM, q: i32[n, 4] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        "        q[i, 0] = a[i] / b[i]\n"
        "        q[i, 1] = a[i] % b[i]\n"
        "        q[i, 2] = a[i] / -7\n"
        "        q[i, 3] = a[i] % -7\n"
    )
    pairs = [(x, y) for x in I32_NUMERATORS for y in DIVISORS]
    a = np.array([x for x, _ in pairs], np.int32)
    b = np.array([y for _, y in pairs], np.int32)
    want = [[x // y, x % y, x // -7, x % -7] for x, y in pairs]
    kernel = compile_native(proc)
    for engine, run in (("C", lambda **kw: kernel(kw)), ("interpreter", lambda **kw: run_proc(proc, backend="interp", **kw))):
        q = np.zeros((len(pairs), 4), np.int32)
        run(n=len(pairs), a=a, b=b, q=q)
        assert q.tolist() == want, engine


@needs_cc
@pytest.mark.parametrize("d", POWERS_OF_TWO)
def test_i32_shift_and_mask_match_python_for_every_sign(d):
    proc = proc_from_source(
        "def floor_i32_pow2(n: size, a: i32[n] @ DRAM, q: i32[n, 2] @ DRAM):\n"
        "    for i in seq(0, n):\n"
        f"        q[i, 0] = a[i] / {d}\n"
        f"        q[i, 1] = a[i] % {d}\n"
    )
    assert "repro_fdiv" not in codegen.emit_unit(proc).source
    a = np.array(I32_NUMERATORS + (-(1 << 31),), np.int32)
    want = [[x // d, x % d] for x in a.tolist()]
    kernel = compile_native(proc)
    for engine, run in (("C", lambda **kw: kernel(kw)), ("interpreter", lambda **kw: run_proc(proc, backend="interp", **kw))):
        q = np.zeros((len(a), 2), np.int32)
        run(n=len(a), a=a, q=q)
        assert q.tolist() == want, engine


@needs_cc
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("machine", ["AVX2", "AVX512"])
def test_masked_instructions_touch_the_lanes_below_their_bound(machine, precision):
    """The lane-mask helpers behind maskload / maskfma / maskstore: counts
    below 0, inside, at and past the vector width, and beyond 32 bits."""
    if machine == "AVX512" and not _host_has("avx512f"):
        pytest.skip("host has no AVX-512")
    m = {"AVX2": AVX2, "AVX512": AVX512}[machine]
    isa, vw = m.get_instruction_set(precision), m.vec_width(precision)
    proc = proc_from_source(
        f"def masked(n: index, x: {precision}[{vw}] @ DRAM, y: {precision}[{vw}] @ DRAM,"
        f" z: {precision}[{vw}] @ DRAM):\n"
        f"    v: {precision}[{vw}] @ VEC\n"
        "    broadcast(v, 5.0)\n"
        f"    maskload(v, x[0:{vw}], n, 0)\n"
        f"    store(y[0:{vw}], v)\n"
        f"    w: {precision}[{vw}] @ VEC\n"
        "    broadcast(w, 2.0)\n"
        "    maskfma(w, v, v, n, 1)\n"
        f"    maskstore(z[0:{vw}], w, n, 2)\n",
        {
            "VEC": m.mem_type, "broadcast": isa.broadcast, "store": isa.store,
            "maskload": isa.pred_load, "maskfma": isa.pred_fma, "maskstore": isa.pred_store,
        },
    )
    kernel = compile_native(proc)
    dtype = np.float32 if precision == "f32" else np.float64
    for n in [*range(-3, vw + 4), 1 << 40, -(1 << 40), (1 << 32) + 1]:
        outs = []
        for run in (lambda **kw: kernel(kw), lambda **kw: run_proc(proc, backend="interp", **kw)):
            y, z = np.zeros(vw, dtype), np.full(vw, -1, dtype)
            run(n=n, x=np.arange(1, vw + 1, dtype=dtype), y=y, z=z)
            outs.append((y.tolist(), z.tolist()))
        assert outs[0] == outs[1], n


_CONTROL_FLOW = re.compile(r"\b(?:if|for|while|do|switch|goto)\b")


@pytest.mark.parametrize("isa", ["scalar", "256-bit", "512-bit"])
def test_the_preamble_helpers_are_straight_line_code(isa):
    """Masked tails call the lane helpers inside loops: a branch in any helper
    brings back the unswitched, stride-versioned loop copies."""
    body = "repro_fdiv(a, b); " + {"scalar": "", "256-bit": "__m256 v;", "512-bit": "__m512 v;"}[isa]
    code = [ln for ln in codegen._preamble(body).splitlines() if not ln.lstrip().startswith("#")]
    assert any("repro_fmod" in ln for ln in code)
    assert [ln for ln in code if _CONTROL_FLOW.search(ln)] == []
