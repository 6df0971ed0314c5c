"""Shared fixtures: small object-code kernels used across the test suite."""

from __future__ import annotations

import pytest

from repro import obs, proc
from repro.lang import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Every test starts with every process-wide counter at zero and an
    empty event ring, so exact-count assertions never see another test."""
    obs.reset()


@proc
def _gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]


@proc
def _axpy(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]


@proc
def _dot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f32[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]


@proc
def _copy2d(M: size, N: size, src: f32[M, N] @ DRAM, dst: f32[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            dst[i, j] = src[i, j]


@proc
def _stages(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    tmp: f32[n] @ DRAM
    for i in seq(0, n):
        tmp[i] = 2.0 * x[i]
    for i in seq(0, n):
        y[i] = tmp[i] + 1.0


@pytest.fixture
def gemv():
    return _gemv


@pytest.fixture
def axpy():
    return _axpy


@pytest.fixture
def dot():
    return _dot


@pytest.fixture
def copy2d():
    return _copy2d


@pytest.fixture
def stages():
    return _stages


@pytest.fixture
def emits(monkeypatch):
    """The names of the procedures the native backend lowered to C (one
    entry per ``emit_unit`` call ``repro.backend.native`` makes: one per
    build, none for a key or a cache hit)."""
    from repro.backend import native

    calls = []
    real = native.emit_unit

    def counting(root, options=None):
        calls.append(root.name)
        return real(root, options)

    monkeypatch.setattr(native, "emit_unit", counting)
    return calls
