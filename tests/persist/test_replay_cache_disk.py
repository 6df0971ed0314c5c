"""The replay cache: true-LRU recency (the get() refresh regression) and
the persistent content-addressed disk tier."""

from __future__ import annotations

import glob
import os

from repro import proc_from_source
from repro.api import ReplayCache, S
from repro.api.trace import state_hash
from repro.interp import check_equiv
from repro.ir.printing import procedure_digest


def _sched():
    return S.divide_loop("i", 8, ["io", "ii"])


# -- true LRU ----------------------------------------------------------------


def test_get_refreshes_recency_so_hot_entries_survive(axpy):
    """Regression: eviction used to be FIFO-by-insertion — ``get`` never
    refreshed recency, so the *hottest* entry was evicted first whenever it
    was also the oldest insert."""
    cache = ReplayCache(maxsize=2)
    cache.put(axpy, "fp-a", axpy, None)
    cache.put(axpy, "fp-b", axpy, None)
    assert cache.get(axpy, "fp-a") is not None  # touch a: now b is the LRU
    cache.put(axpy, "fp-c", axpy, None)         # evicts b, not a
    assert cache.get(axpy, "fp-a") is not None
    assert cache.get(axpy, "fp-b") is None
    assert cache.get(axpy, "fp-c") is not None


def test_put_of_an_existing_key_refreshes_too(axpy):
    cache = ReplayCache(maxsize=2)
    cache.put(axpy, "fp-a", axpy, None)
    cache.put(axpy, "fp-b", axpy, None)
    cache.put(axpy, "fp-a", axpy, None)  # re-put: a becomes most recent
    cache.put(axpy, "fp-c", axpy, None)
    assert cache.get(axpy, "fp-b") is None
    assert cache.get(axpy, "fp-a") is not None


# -- the persistent tier -----------------------------------------------------


def test_disk_tier_hits_across_cache_instances(axpy, tmp_path):
    """A fresh cache object (= a fresh process: the key digests are
    process-stable) replays the stored trace instead of re-scheduling."""
    warm = ReplayCache(path=str(tmp_path))
    p1 = _sched().apply(axpy, cache=warm)
    assert warm.stats()["disk_writes"] == 1

    cold = ReplayCache(path=str(tmp_path))  # empty memory, same directory
    p2 = _sched().apply(axpy, cache=cold)
    s = cold.stats()
    assert s["disk_hits"] == 1 and s["hits"] == 1 and s["disk_errors"] == 0
    # the replayed result is the same transformation of the same kernel
    assert state_hash(p2) == state_hash(p1)
    assert check_equiv(axpy, p2, {"n": 64})
    # and now it is in memory: the next apply never touches the disk again
    _sched().apply(axpy, cache=cold)
    assert cold.stats()["disk_hits"] == 1 and cold.stats()["hits"] == 2


def test_records_are_sharded_and_content_addressed(axpy, tmp_path):
    cache = ReplayCache(path=str(tmp_path))
    _sched().apply(axpy, cache=cache)
    (digest, _), rec = cache.entry(axpy, _sched().fingerprint())
    assert os.path.exists(rec)
    # named and sharded by the procedure digest the memory key holds
    assert digest == procedure_digest(axpy._root)
    assert os.path.basename(rec).startswith(digest + "-")
    assert os.path.basename(os.path.dirname(rec)) == digest[:2]


def test_corrupt_disk_record_is_quarantined_and_recomputed(axpy, tmp_path):
    warm = ReplayCache(path=str(tmp_path))
    p1 = _sched().apply(axpy, cache=warm)
    rec = warm.entry(axpy, _sched().fingerprint())[1]
    with open(rec, "w") as f:
        f.write('{"version": 1, "trace": ')  # torn mid-write

    cold = ReplayCache(path=str(tmp_path))
    p2 = _sched().apply(axpy, cache=cold)
    s = cold.stats()
    assert s["disk_errors"] == 1 and s["disk_hits"] == 0 and s["misses"] == 1
    assert glob.glob(f"{rec}.corrupt-*")  # evidence preserved
    assert state_hash(p2) == state_hash(p1)  # recomputed correctly...
    assert s["disk_writes"] == 1  # ...and republished as a good record
    assert ReplayCache(path=str(tmp_path)).get(axpy, _sched().fingerprint()) is not None


def test_memory_only_cache_never_touches_disk(axpy):
    cache = ReplayCache()
    _sched().apply(axpy, cache=cache)
    assert "disk_hits" not in cache.stats()  # the documented memory-only shape


def test_a_record_written_by_another_library_is_a_miss_and_is_republished(axpy, tmp_path, monkeypatch):
    """A registered op is fingerprinted by its name, so the record path names
    the library source too: a process running changed library code must not
    replay the trace the old library recorded."""
    from repro.api import cache as cache_module

    current = cache_module.library_digest()
    monkeypatch.setattr(cache_module, "library_digest", lambda: "0" * 16)
    old = ReplayCache(path=str(tmp_path))
    _sched().apply(axpy, cache=old)
    stale = old.entry(axpy, _sched().fingerprint())[1]
    assert os.path.exists(stale) and current not in stale
    monkeypatch.undo()

    new = ReplayCache(path=str(tmp_path))
    _sched().apply(axpy, cache=new)
    s = new.stats()
    assert s["disk_hits"] == 0 and s["misses"] == 1 and s["disk_writes"] == 1
    fresh = new.entry(axpy, _sched().fingerprint())[1]
    assert fresh != stale and current in os.path.basename(fresh) and os.path.exists(fresh)
    assert ReplayCache(path=str(tmp_path)).get(axpy, _sched().fingerprint()) is not None


def test_the_library_digest_is_computed_once_per_process():
    from repro.api import cache as cache_module

    digest = cache_module.library_digest()
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert cache_module.library_digest() is digest


_TWIN = """
def k(n: size, a: {T}, x: {T}[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] + a
"""


def test_twins_that_differ_only_in_argument_types_get_their_own_entries(tmp_path):
    """The f32 and the f64 build of one source are different programs: a
    cache must never hand one the other's schedule, in memory or on disk."""
    twins = [proc_from_source(_TWIN.format(T=t)) for t in ("f32", "f64")]
    s = S.divide_loop("i", 4, ["io", "ii"], tail="guard")
    memory, disk = ReplayCache(), ReplayCache(path=str(tmp_path))
    for cache in (memory, disk):
        got = [s.apply(p, cache=cache) for p in twins]
        assert [q._root.args[1].typ for q in got] == [p._root.args[1].typ for p in twins]
        assert cache.stats()["misses"] == 2 and len(cache) == 2
    paths = {disk.entry(p, s.fingerprint())[1] for p in twins}
    assert len(paths) == 2 and all(os.path.exists(path) for path in paths)
    cold = ReplayCache(path=str(tmp_path))  # a fresh process: the disk tier alone
    got = [s.apply(p, cache=cold) for p in twins]
    assert [str(q) for q in got] == [str(s.apply(p)) for p in twins]
    assert cold.stats()["disk_hits"] == 2
