#!/usr/bin/env python3
"""repro_fsck — doctor for the repro persistent stores.

Scans leaderboard files, native-artifact cache directories, persistent
replay-cache shards, and tune checkpoint journals for the damage a crash,
``kill -9``, or bit rot can leave behind:

* **corrupt records** — ``.json`` files (leaderboards, replay-cache traces,
  ``.meta.json`` trust sidecars) that lack or fail their sha256 trailer or
  do not decode; ``--repair`` quarantines them to ``<path>.corrupt-<digest>``
* **torn journals** — ``.jsonl`` checkpoint journals with lines that fail
  their per-line checksum; ``--repair`` compacts the journal to its intact
  lines (a backup of the original is quarantined first)
* **orphaned staging files** — ``.stage-*.tmp``/``*.tmp`` leftovers from a
  writer that died between staging and publish, reported once older than
  ``--tmp-age``; ``--repair`` deletes them
* **orphaned trust sidecars** — ``.meta.json`` whose ``.so`` was pruned or
  lost; ``--repair`` deletes them
* **lock files** — ``.lock`` files are probed with a non-blocking ``flock``:
  *held* means a live process owns the store (reported, never touched);
  *idle* is the normal state between saves (informational).  ``--purge``
  deletes idle lock files and quarantine evidence — only safe when no
  tuner/worker is running.
* **stale service sockets** — ``.sock`` files are probed with a connect: a
  listener answering means a live schedule service owns the state directory
  (reported, never touched); no listener means the server died without
  cleanup and a restart would have to unlink it; ``--repair`` deletes it
* **orphaned request journals** — a service ``requests.jsonl`` with no
  (live or stale) socket beside it belongs to a server whose state
  directory was torn apart; reported informationally, deleted by
  ``--purge`` like other evidence (it is observability data, not state)

Exit status: 0 when the stores are clean (informational findings do not
count), 1 when any corruption or orphan was found — scriptable as a health
check before a tuning fleet starts.

Usage::

    python tools/repro_fsck.py [--repair] [--purge] [--tmp-age S] PATH...
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.persist import (  # noqa: E402
    CorruptRecordError,
    quarantine_file,
    read_record,
)
from repro.persist.journal import Journal  # noqa: E402

#: finding kinds that make the store unhealthy (exit 1, repairable)
PROBLEM_KINDS = frozenset(
    {"corrupt-record", "torn-journal", "orphan-tmp", "orphan-sidecar", "stale-socket"}
)

#: file names the schedule service keeps in its state directory
SERVICE_JOURNAL = "requests.jsonl"


@dataclass
class Finding:
    kind: str  #: e.g. ``corrupt-record``; see PROBLEM_KINDS for the fatal set
    path: str
    detail: str = ""
    repaired: Optional[str] = None  #: what --repair/--purge did, if anything

    @property
    def is_problem(self) -> bool:
        return self.kind in PROBLEM_KINDS

    def render(self) -> str:
        tag = self.kind.upper().replace("-", " ")
        line = f"{'!' if self.is_problem else ' '} [{tag}] {self.path}"
        if self.detail:
            line += f" — {self.detail}"
        if self.repaired:
            line += f" (repaired: {self.repaired})"
        return line


def _lock_state(path: str) -> str:
    """``"held"`` when a live process owns the flock, else ``"idle"``."""
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return "idle"
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(fd, fcntl.LOCK_UN)
            return "idle"
        except OSError:
            return "held"
    finally:
        os.close(fd)


def _socket_live(path: str) -> bool:
    """True when a listener answers on the Unix socket at ``path``."""
    import socket as _socket

    try:
        s = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        return False
    try:
        s.settimeout(0.5)
        s.connect(path)
        return True
    except OSError:
        return False
    finally:
        s.close()


def _check_file(path: str, *, tmp_age_s: float, repair: bool, purge: bool) -> List[Finding]:
    name = os.path.basename(path)
    out: List[Finding] = []

    if ".corrupt-" in name:
        f = Finding("quarantine-evidence", path, "preserved corrupt bytes from an earlier failure")
        if purge:
            os.unlink(path)
            f.repaired = "deleted"
        out.append(f)
    elif name.endswith(".tmp"):
        try:
            age = time.time() - os.stat(path).st_mtime
        except OSError:
            return out
        if age >= tmp_age_s:
            f = Finding("orphan-tmp", path, f"staging file abandoned {age:.0f}s ago")
            if repair:
                os.unlink(path)
                f.repaired = "deleted"
            out.append(f)
    elif name.endswith(".sock"):
        if _socket_live(path):
            out.append(Finding("socket-live", path, "a schedule service is listening here"))
        else:
            f = Finding("stale-socket", path, "no listener behind this socket (server died without cleanup)")
            if repair:
                os.unlink(path)
                f.repaired = "deleted"
            out.append(f)
    elif name.endswith(".lock"):
        state = _lock_state(path)
        f = Finding(f"lock-{state}", path, "a live process holds this store" if state == "held" else "")
        if state == "idle" and purge:
            os.unlink(path)
            f.repaired = "deleted"
        out.append(f)
    elif name.endswith(".meta.json"):
        so = path[: -len(".meta.json")] + ".so"
        if not os.path.exists(so):
            f = Finding("orphan-sidecar", path, "trust stamp without its .so artifact")
            if repair:
                os.unlink(path)
                f.repaired = "deleted"
            out.append(f)
        else:
            out.extend(_check_record(path, repair=repair))
    elif name.endswith(".json"):
        out.extend(_check_record(path, repair=repair))
    elif name.endswith(".jsonl"):
        if name == SERVICE_JOURNAL:
            sibling = any(
                entry.endswith(".sock")
                for entry in os.listdir(os.path.dirname(path) or ".")
            )
            if not sibling:
                f = Finding(
                    "orphan-request-journal",
                    path,
                    "service request journal with no socket beside it",
                )
                if purge:
                    os.unlink(path)
                    f.repaired = "deleted"
                    out.append(f)
                    return out
                out.append(f)
        j = Journal(path)
        intact = j.entries()
        if j.torn:
            f = Finding("torn-journal", path, f"{j.torn} torn line(s), {len(intact)} intact")
            if repair:
                backup = quarantine_file(path)
                fresh = Journal(path)
                for rec in intact:
                    fresh.append(rec)
                f.repaired = f"compacted ({len(intact)} entries kept, original at {backup})"
            out.append(f)
    return out


def _check_record(path: str, *, repair: bool) -> List[Finding]:
    try:
        read_record(path)
        return []
    except CorruptRecordError as err:
        f = Finding("corrupt-record", path, str(err))
        if repair:
            dest = quarantine_file(path)
            f.repaired = f"quarantined to {dest}" if dest else "quarantine failed"
        return [f]
    except OSError as err:
        return [Finding("corrupt-record", path, f"unreadable: {err}")]


def scan(
    paths: List[str],
    *,
    tmp_age_s: float = 60.0,
    repair: bool = False,
    purge: bool = False,
) -> List[Finding]:
    """Walk every path (file or directory) and return all findings."""
    out: List[Finding] = []
    for root in paths:
        if os.path.isdir(root):
            for dirpath, _dirs, files in os.walk(root):
                for name in sorted(files):
                    out.extend(
                        _check_file(
                            os.path.join(dirpath, name),
                            tmp_age_s=tmp_age_s,
                            repair=repair,
                            purge=purge,
                        )
                    )
        elif os.path.exists(root):
            out.extend(_check_file(root, tmp_age_s=tmp_age_s, repair=repair, purge=purge))
        else:
            out.append(Finding("missing-path", root, "no such file or directory"))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], prog="repro_fsck")
    ap.add_argument("paths", nargs="+", help="store files or directories to check")
    ap.add_argument("--repair", action="store_true", help="quarantine corrupt records, delete orphans, compact torn journals")
    ap.add_argument("--purge", action="store_true", help="also delete quarantine evidence and idle lock files (only with no live writers)")
    ap.add_argument("--tmp-age", type=float, default=60.0, metavar="S", help="report .tmp staging files older than S seconds (default 60)")
    args = ap.parse_args(argv)

    findings = scan(args.paths, tmp_age_s=args.tmp_age, repair=args.repair, purge=args.purge)
    problems = [f for f in findings if f.is_problem]
    for f in findings:
        print(f.render())
    print(
        f"repro_fsck: {len(problems)} problem(s), "
        f"{len(findings) - len(problems)} informational finding(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
