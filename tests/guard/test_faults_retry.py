"""Fault-injection framework and retry semantics (repro.guard.faults/retry)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.config import ConfigError
from repro.guard import (
    VALID_FAULTS,
    FaultError,
    active_faults,
    env_faults,
    inject,
    is_active,
    should_fire,
    with_retry,
)


def test_unknown_fault_names_are_rejected_loudly():
    with pytest.raises(FaultError, match="valid faults are"):
        should_fire("no-such-fault")
    with pytest.raises(FaultError):
        is_active("cc_missing")  # underscores are not the spelling
    with pytest.raises(FaultError):
        with inject("kernel-sigsegv"):
            pass


def test_env_faults_are_validated_and_memoised(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "cc-missing, kernel-hang")
    assert env_faults() == {"cc-missing", "kernel-hang"}
    assert env_faults() is env_faults()  # memoised per raw value
    monkeypatch.setenv("REPRO_FAULTS", "cc-missign")
    with pytest.raises(ConfigError, match="REPRO_FAULTS.*cc-missign"):
        env_faults()
    monkeypatch.setenv("REPRO_FAULTS", "")
    assert env_faults() == frozenset()


def test_inject_times_budget_and_nesting(tolerates):
    tolerates(*(VALID_FAULTS - {"cc-transient"}))
    assert not should_fire("cc-transient")
    with inject("cc-transient", times=2):
        assert is_active("cc-transient")
        assert should_fire("cc-transient")
        assert should_fire("cc-transient")
        assert not should_fire("cc-transient")  # budget spent
        with inject("cc-transient"):  # unlimited while nested
            assert should_fire("cc-transient")
            assert should_fire("cc-transient")
        assert not should_fire("cc-transient")  # outer (spent) arming restored
    assert not is_active("cc-transient")


def test_active_faults_unions_env_and_injected(monkeypatch, tolerates):
    tolerates()
    monkeypatch.setenv("REPRO_FAULTS", "publish-race")
    with inject("cc-missing"):
        assert active_faults() == {"publish-race", "cc-missing"}
    assert "cc-missing" not in active_faults()


def test_fault_names_match_the_documented_set():
    assert VALID_FAULTS == {
        "cc-missing",
        "cc-transient",
        "artifact-corrupt",
        "kernel-segfault",
        "kernel-hang",
        "worker-crash",
        "publish-race",
        "partial-write",
        "lock-timeout",
        "kill-mid-publish",
        "omp-missing",
        "thread-pool-exhausted",
    }


def test_with_retry_recovers_from_transient_failures():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("transient")
        return "done"

    assert with_retry(flaky, base_delay_s=0.001, label="flaky-op") == "done"
    assert len(calls) == 3
    assert obs.counters("retry.") == {"flaky-op": 2}


def test_with_retry_exhausts_and_propagates():
    def always():
        raise OSError("permanent")

    with pytest.raises(OSError, match="permanent"):
        with_retry(always, attempts=3, base_delay_s=0.001, label="perm")
    assert obs.count("retry.perm") == 2  # attempts - 1 retries, then give up


def test_with_retry_does_not_retry_deterministic_errors():
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("compile error, not transient")

    with pytest.raises(ValueError):
        with_retry(broken, base_delay_s=0.001)
    assert len(calls) == 1
