"""The checksummed atomic record store: round trips, torn-write detection,
quarantine, and the concurrent-staging discipline."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.guard.faults import inject
from repro.persist import (
    TRAILER_PREFIX,
    CorruptRecordError,
    quarantine_file,
    read_record,
    write_record,
    write_text_atomic,
)


def test_round_trip_and_trailer(tmp_path):
    path = str(tmp_path / "rec.json")
    payload = {"version": 1, "nested": {"a": [1, 2, 3]}, "t": "text"}
    write_record(path, payload)
    assert read_record(path) == payload
    lines = open(path).read().rstrip("\n").splitlines()
    assert lines[-1].startswith(TRAILER_PREFIX)
    # nothing left behind: no staging temp, no fixed .tmp sibling
    assert sorted(os.listdir(tmp_path)) == ["rec.json"]


def test_a_write_torn_at_the_trailer_is_rejected(tmp_path):
    # valid JSON, no trailer: exactly what a write torn at the trailer line
    # leaves behind -- it must not load unverified
    path = str(tmp_path / "rec.json")
    write_record(path, {"version": 1, "boards": {}})
    body = open(path).read().rpartition(TRAILER_PREFIX)[0]
    assert json.loads(body) == {"version": 1, "boards": {}}
    with open(path, "w") as f:
        f.write(body)
    with pytest.raises(CorruptRecordError, match="no sha256 trailer"):
        read_record(path)


def test_flipped_byte_is_detected(tmp_path):
    path = str(tmp_path / "rec.json")
    write_record(path, {"v": 1})
    raw = bytearray(open(path, "rb").read())
    i = raw.index(b"1")
    raw[i : i + 1] = b"2"  # a plausible-looking JSON mutation, not garbage
    with open(path, "wb") as f:
        f.write(raw)
    with pytest.raises(CorruptRecordError, match="sha256"):
        read_record(path)


def test_truncation_is_detected(tmp_path):
    path = str(tmp_path / "rec.json")
    write_record(path, {"v": 1, "pad": "x" * 200})
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[: len(raw) // 2])
    with pytest.raises(CorruptRecordError):
        read_record(path)


def test_non_json_garbage_is_detected_not_decoded(tmp_path):
    path = str(tmp_path / "rec.json")
    with open(path, "wb") as f:
        f.write(b"\x00\xffnot json at all")
    with pytest.raises(CorruptRecordError, match="no sha256 trailer"):
        read_record(path)


def test_missing_file_raises_oserror_not_corrupt(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_record(str(tmp_path / "absent.json"))


def test_quarantine_is_content_addressed_and_preserves_evidence(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        f.write("torn bytes")
    dest = quarantine_file(path)
    assert dest and os.path.basename(dest).startswith("bad.json.corrupt-")
    assert not os.path.exists(path)
    assert open(dest).read() == "torn bytes"
    # re-detecting identical corruption collapses to the same evidence file
    with open(path, "w") as f:
        f.write("torn bytes")
    assert quarantine_file(path) == dest


def test_quarantine_of_a_vanished_file_returns_none(tmp_path):
    assert quarantine_file(str(tmp_path / "gone.json")) is None


@pytest.mark.chaos_tolerates("partial-write")
def test_partial_write_fault_publishes_a_torn_detectable_record(tmp_path):
    path = str(tmp_path / "rec.json")
    with inject("partial-write", times=1):
        write_record(path, {"v": 1, "pad": "y" * 500})
    with pytest.raises(CorruptRecordError):
        read_record(path)
    # the reader's protocol: preserve the evidence, start fresh
    dest = quarantine_file(path)
    assert dest and os.path.exists(dest) and not os.path.exists(path)


def test_overwrite_is_atomic_old_or_new(tmp_path):
    path = str(tmp_path / "rec.json")
    write_record(path, {"gen": 0})
    with inject("partial-write", times=1):
        write_record(path, {"gen": 1, "pad": "z" * 300})
    # the torn write replaced the record and must be *detected*; a reader
    # never silently decodes a hybrid of generations
    with pytest.raises(CorruptRecordError):
        read_record(path)


def test_concurrent_writers_on_one_path_never_collide(tmp_path):
    """Regression for the fixed-``.tmp``-sibling scheme: two writers staging
    at ``<path>.tmp`` raced (one ``os.replace`` wins, the other's staging
    file is gone → ``FileNotFoundError``).  ``mkstemp`` staging makes N
    concurrent writers safe: last publish wins, every intermediate state is
    a complete record, nothing is left behind."""
    path = str(tmp_path / "shared.json")
    errors = []

    def hammer(worker):
        try:
            for i in range(25):
                write_record(path, {"worker": worker, "i": i}, fsync=False)
        except BaseException as err:  # noqa: BLE001 - collect everything
            errors.append(err)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    final = read_record(path)
    assert final["i"] == 24  # some worker's last write, fully intact
    assert sorted(os.listdir(tmp_path)) == ["shared.json"]  # no .tmp orphans


def test_write_text_atomic_round_trip(tmp_path):
    path = str(tmp_path / "kernel.c")
    write_text_atomic(path, "int main(void) { return 0; }\n")
    assert open(path).read() == "int main(void) { return 0; }\n"
    assert sorted(os.listdir(tmp_path)) == ["kernel.c"]


def test_write_record_creates_parent_directories(tmp_path):
    path = str(tmp_path / "a" / "b" / "rec.json")
    write_record(path, {"v": 1}, fsync=False)
    assert read_record(path) == {"v": 1}


def test_machine_id_reads_the_cpu_model_once_per_process(monkeypatch):
    from repro.persist import store

    reads = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        reads.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(store, "open", counting_open, raising=False)
    store.machine_id.cache_clear()
    try:
        first = store.machine_id()
        assert store.machine_id() is first
        assert reads.count("/proc/cpuinfo") == (1 if os.path.exists("/proc/cpuinfo") else 0)
        assert first == store.machine_id.__wrapped__()  # what an uncached read gives
    finally:
        store.machine_id.cache_clear()
