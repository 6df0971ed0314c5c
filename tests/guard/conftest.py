"""Shared fixtures for the hardened-execution-layer (repro.guard) suite.

These tests double as the chaos suite: the CI chaos job re-runs them with
each fault forced through ``REPRO_FAULTS``.  Tests that assert *clean-path*
behaviour (exact event counts, successful validation) therefore declare the
env faults they tolerate and skip under any other — a forced fault must make
the degradation tests bite, not make unrelated assertions flake.
"""

from __future__ import annotations

import pytest

from repro.backend import native
from repro.guard import faults


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private, empty native-artifact cache (every counter starts each test
    at zero: see the ``obs.reset()`` fixture in ``tests/conftest.py``)."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    native.clear_memo()
    yield tmp_path
    native.clear_memo()


@pytest.fixture
def tolerates():
    """``tolerates("cc-missing", ...)`` — skip when any *other* env fault is
    armed (chaos runs force faults this test's assertions can't absorb)."""

    def check(*names):
        extra = sorted(set(faults.env_faults()) - set(names))
        if extra:
            pytest.skip(f"armed env fault(s) {', '.join(extra)} conflict with this test")

    return check


@pytest.fixture
def fast_guard(monkeypatch):
    """A short watchdog so hang tests finish in well under a second."""
    monkeypatch.setenv("REPRO_GUARD_TIMEOUT", "0.4")
