"""Guard helpers on their boundary inputs: a retry budget of zero, and a
fault armed to skip its first visits."""
from __future__ import annotations

import pytest

from repro.guard import faults, inject
from repro.guard.retry import with_retry


def test_a_retry_needs_at_least_one_attempt():
    with pytest.raises(ValueError, match="with_retry needs attempts >= 1"):
        with_retry(lambda: 1, attempts=0)
    assert with_retry(lambda: 1, attempts=1) == 1


def test_an_injected_fault_can_skip_its_first_visits():
    # only asked, never reached: kill-mid-publish is the one fault no chaos
    # job arms in the environment
    with inject("kill-mid-publish", times=1, skip=2):
        assert [faults.should_fire("kill-mid-publish") for _ in range(4)] == [False, False, True, False]
