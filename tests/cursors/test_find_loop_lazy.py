"""Regression: the ``find_loop`` near-miss suggestion walk must stay behind
the surfaced-failure branch (ISSUE 5 satellite).

``to_loop_cursor`` probes ``find_loop`` first and falls back to
pattern search; library code probes optional loops in ``try/except``.  Before
the fix, every one of those *recovered* probes walked the whole procedure and
ran difflib to build a suggestion nobody would ever read.  The walk now runs
lazily, only when the error message is actually rendered.
"""

from __future__ import annotations

import pytest

from repro.cursors import cursor as cursor_mod
from repro.cursors.cursor import ForCursor, LoopNotFoundError
from repro.errors import InvalidCursorError


@pytest.fixture
def walk_counter(monkeypatch):
    calls = []
    real = cursor_mod._loop_names_below

    def counting(proc, base_path):
        calls.append((proc, tuple(base_path)))
        return real(proc, base_path)

    monkeypatch.setattr(cursor_mod, "_loop_names_below", counting)
    return calls


def test_successful_find_loop_never_walks(gemv, walk_counter):
    assert isinstance(gemv.find_loop("i"), ForCursor)
    assert walk_counter == []


def test_combinator_recovery_does_not_pay_for_suggestions(gemv, walk_counter):
    # try_ swallows the failed unroll (no loop 'zz' exists) and returns the
    # procedure unchanged: a success path end to end, no suggestion walk
    from repro.api import S, try_

    out = try_(S.unroll_loop("zz")).apply(gemv)
    assert str(out) == str(gemv)
    assert walk_counter == []


def test_caught_and_discarded_failures_do_not_walk(gemv, walk_counter):
    # the try/except probing idiom used throughout the libraries
    try:
        gemv.find_loop("no_such_loop")
    except InvalidCursorError:
        pass
    assert walk_counter == []


def test_rendered_failure_still_suggests_near_misses(gemv, walk_counter):
    with pytest.raises(InvalidCursorError) as excinfo:
        gemv.find_loop("jo")
    assert isinstance(excinfo.value, LoopNotFoundError)
    assert walk_counter == []  # nothing rendered yet
    msg = str(excinfo.value)
    assert "no loop 'jo'" in msg and "did you mean" in msg and "'j'" in msg
    assert len(walk_counter) == 1
    # rendering is memoised: a second str() does not re-walk
    str(excinfo.value)
    assert len(walk_counter) == 1


def test_lazy_error_survives_pickling(gemv):
    # the walk cannot cross a process boundary: pickling renders the message
    import pickle

    with pytest.raises(InvalidCursorError) as excinfo:
        gemv.find_loop("jo")
    revived = pickle.loads(pickle.dumps(excinfo.value))
    assert isinstance(revived, InvalidCursorError)
    assert "did you mean" in str(revived)


def test_occurrence_selector_failure_keeps_the_precise_message(gemv):
    with pytest.raises(InvalidCursorError, match="occurrence"):
        try:
            gemv.find_loop("i #5")
        except InvalidCursorError as err:
            assert "occurrence" in str(err)  # name exists: no bogus suggestion
            raise
