"""``repro.config``: one grammar per kind of ``REPRO_*`` variable, and a
loud error naming the variable for anything outside it."""

from __future__ import annotations

import pytest

from repro import config
from repro.config import ConfigError


@pytest.mark.parametrize("var, read", [
    ("REPRO_GUARD", config.guard_enabled),
])
def test_booleans_share_one_grammar(monkeypatch, var, read):
    monkeypatch.delenv(var, raising=False)
    assert read() is True  # default on
    for raw in ("0", "off", "No", "FALSE"):
        monkeypatch.setenv(var, raw)
        assert read() is False, raw
    for raw in ("1", "on", "Yes", "TRUE", ""):
        monkeypatch.setenv(var, raw)
        assert read() is True, raw
    monkeypatch.setenv(var, "maybe")
    with pytest.raises(ConfigError, match=var):
        read()


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "inf", "nan"])
def test_guard_timeout_rejects_what_it_used_to_ignore(monkeypatch, raw):
    monkeypatch.setenv("REPRO_GUARD_TIMEOUT", raw)
    with pytest.raises(ConfigError, match="REPRO_GUARD_TIMEOUT"):
        config.guard_timeout_s()


def test_values_are_read_on_every_call(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD_TIMEOUT", raising=False)
    assert config.guard_timeout_s() == 30.0
    monkeypatch.setenv("REPRO_GUARD_TIMEOUT", "0.5")
    assert config.guard_timeout_s() == 0.5
    monkeypatch.setenv("REPRO_NUM_THREADS", " 3 ")
    assert config.num_threads() == 3
    monkeypatch.delenv("REPRO_NUM_THREADS")
    assert config.num_threads() is None
    monkeypatch.setenv("REPRO_NATIVE_CACHE", "/tmp/somewhere")
    assert config.native_cache_dir() == "/tmp/somewhere"


def test_vocabularies_come_from_the_caller(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "interp")
    assert config.exec_backend(("compiled", "interp")) == "interp"
    with pytest.raises(ConfigError, match="REPRO_EXEC_BACKEND='interp'"):
        config.exec_backend(("compiled",))
    monkeypatch.setenv("REPRO_FAULTS", "a, b")
    assert config.faults({"a", "b", "c"}) == {"a", "b"}
    monkeypatch.setenv("REPRO_FAULTS", "a,bb")
    with pytest.raises(ConfigError, match="REPRO_FAULTS.*unknown fault.*bb"):
        config.faults({"a", "b", "c"})


_ACCESSORS = [
    # variable, read, a value to set, what it reads as, what unset reads as
    ("REPRO_EXEC_BACKEND", lambda: config.exec_backend(("compiled", "interp")), "interp", "interp", None),
    ("REPRO_NUM_THREADS", config.num_threads, "3", 3, None),
    ("REPRO_GUARD", config.guard_enabled, "off", False, True),
    ("REPRO_GUARD_TIMEOUT", config.guard_timeout_s, "0.5", 0.5, 30.0),
    ("REPRO_FAULTS", lambda: config.faults({"a", "b"}), "a", {"a"}, frozenset()),
    ("REPRO_NATIVE_CACHE", config.native_cache_dir, "/tmp/somewhere", "/tmp/somewhere", None),
    ("CC", config.cc_name, "clang", "clang", "cc"),
    ("PATH", config.search_path, "/nowhere/bin", "/nowhere/bin", None),
]


@pytest.mark.parametrize("var, read, raw, when_set, when_unset", _ACCESSORS, ids=[a[0] for a in _ACCESSORS])
@pytest.mark.parametrize("store", ["own store", "os.environ.get"])
def test_every_accessor_sees_a_change_on_the_very_next_call(monkeypatch, store, var, read, raw, when_set, when_unset):
    if store == "os.environ.get":  # the reader of a Python whose environ has no dict store
        monkeypatch.setattr(config, "_STORE", None)
    monkeypatch.delenv(var, raising=False)
    unset = read()
    if var == "REPRO_NATIVE_CACHE":  # a default under the home directory
        assert unset.endswith("/.cache/repro/native")
    else:
        assert unset == when_unset
    for _ in range(2):  # each change is seen the first time, and again
        monkeypatch.setenv(var, raw)
        assert read() == when_set
        monkeypatch.delenv(var)
        assert read() == unset
