"""The journal's held append descriptor: one ``open`` for many appends, and
never a line written into a file that ``path`` no longer names."""

from __future__ import annotations

import os

from repro.persist import Journal, quarantine_file


def test_descriptor_is_held_between_appends_and_released_by_close(tmp_path):
    j = Journal(str(tmp_path / "sub" / "log.jsonl"), fsync=False)
    j.append({"i": 0})
    fd = j._fd
    os.fstat(fd)  # open
    j.append({"i": 1})
    assert j._fd == fd
    j.close()
    j.close()  # idempotent
    assert j._fd is None
    j.append({"i": 2})  # reopens
    assert j.entries() == [{"i": 0}, {"i": 1}, {"i": 2}] and j.torn == 0


def test_append_lands_at_path_after_unlink_replace_or_quarantine(tmp_path):
    path = str(tmp_path / "log.jsonl")
    j = Journal(path)
    j.append({"i": 0})

    os.unlink(path)
    j.append({"i": 1})
    assert Journal(path).entries() == [{"i": 1}]

    other = Journal(str(tmp_path / "other.jsonl"))
    other.append({"other": True})
    os.replace(other.path, path)  # rotated: path now names another file
    j.append({"i": 2})
    assert Journal(path).entries() == [{"other": True}, {"i": 2}]

    moved = quarantine_file(path)  # what fsck --repair does before compacting
    j.append({"i": 3})
    assert Journal(path).entries() == [{"i": 3}]
    assert Journal(moved).entries() == [{"other": True}, {"i": 2}]
