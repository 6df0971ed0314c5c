"""Records and journals on the damage the kill harness does not make: a
record whose checksum holds over bytes that are not JSON, a publish that
fails after staging, and journal lines that are blank, torn by a partial
write, or checksummed garbage."""
from __future__ import annotations

import os

import pytest

from repro.guard import inject
from repro.persist import CorruptRecordError, FileLock, read_record, write_record
from repro.persist import store as store_module
from repro.persist.journal import _SEP, Journal, _line_digest
from repro.persist.store import TRAILER_PREFIX, _sha


def test_a_record_with_a_valid_checksum_over_bad_json_is_corrupt(tmp_path):
    body = "{not json"
    path = tmp_path / "r.json"
    path.write_text(f"{body}\n{TRAILER_PREFIX}{_sha(body)}\n")
    with pytest.raises(CorruptRecordError, match="has a valid checksum but undecodable JSON"):
        read_record(str(path))


def test_a_publish_that_fails_leaves_no_staging_file(tmp_path, monkeypatch):
    def refuse(_src, _dst):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(store_module.os, "replace", refuse)
    with pytest.raises(OSError, match="Permission denied"):
        write_record(str(tmp_path / "r.json"), {"a": 1})
    with pytest.raises(OSError, match="Permission denied"):
        store_module.write_text_atomic(str(tmp_path / "t.txt"), "text")
    assert os.listdir(tmp_path) == []


def test_a_journal_skips_blank_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(str(path), fsync=False)
    journal.append({"n": 1})
    with inject("partial-write", times=1):
        journal.append({"n": 2})  # half a line: what a crash mid-write leaves
    journal.close()
    with open(path, "a") as f:
        f.write("\n")
        f.write(f"\nnot json{_SEP}{_line_digest('not json')}\n")
    journal.append({"n": 3})
    entries = journal.entries()
    assert [e["n"] for e in entries] == [1, 3] and journal.torn == 2


def test_releasing_a_lock_that_is_not_held_does_nothing(tmp_path):
    lock = FileLock(str(tmp_path / "l.lock"))
    lock.release()
    with lock:
        pass
    lock.release()
