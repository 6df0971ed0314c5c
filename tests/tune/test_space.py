"""Search-space construction and its grid (repro.tune.space)."""

from __future__ import annotations

import pytest

from repro.tune import Param, Space, TuneError


def test_param_choices_and_ranges():
    assert Param("vec", (4, 8, 16)).values == (4, 8, 16)
    assert Param.range("i", 1, 5).values == (1, 2, 3, 4)
    assert Param.range("i", 0, 10, 3).values == (0, 3, 6, 9)
    assert Param.pow2("t", 16, 128).values == (16, 32, 64, 128)
    assert Param.pow2("t", 3, 13).values == (3, 6, 12)


def test_param_rejects_malformed_domains():
    with pytest.raises(TuneError):
        Param("x", ())
    with pytest.raises(TuneError):
        Param("x", (1, 1))
    with pytest.raises(TuneError):
        Param("", (1,))
    with pytest.raises(TuneError):
        Param.pow2("x", 0, 8)


def test_space_size_and_points():
    sp = Space(Param("a", (1, 2, 3)), Param("b", ("x", "y")))
    assert sp.size() == 6
    assert sp.names() == ["a", "b"]
    pts = sp.grid()
    assert len(pts) == 6
    # first param varies slowest
    assert pts == [{"a": a, "b": b} for a in (1, 2, 3) for b in ("x", "y")]


def test_space_from_mapping_and_kwargs():
    assert Space({"a": (1, 2)}).size() == 2
    assert Space(a=(1, 2), b=(3,)).size() == 2
    with pytest.raises(TuneError):
        Space(Param("a", (1,)), a=(2,))  # duplicate name


def test_empty_space_is_the_single_defaults_candidate():
    sp = Space()
    assert sp.size() == 1
    assert sp.grid() == [{}]
