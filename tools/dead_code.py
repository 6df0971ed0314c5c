#!/usr/bin/env python3
"""Line census: which lines of ``src/repro`` does tier-1 never run?

    PYTHONPATH=src python tools/dead_code.py

Runs the tier-1 suite (``python -m pytest -q``) with this file loaded as a
pytest plugin.  The plugin arms ``sys.settrace`` / ``threading.settrace``
when it is imported -- before ``conftest.py`` imports ``repro`` -- so
import-time lines count.  Frames outside ``src/repro`` get no local tracer,
and a code object stops being traced once every one of its lines has run.
A forked child (the quarantine guard's, the kill harness's victims) keeps
tracing: ``os.register_at_fork`` notes what the parent had seen, and
``os._exit`` is wrapped to dump what the child added to a per-pid file,
merged by file at the end of the session.

A line is *executable* when a code object compiled from the file maps an
instruction to it (``co_lines``), not counting the ``RESUME`` a function
opens on its ``def`` line; it *ran* when a ``line`` event fired on it.  Each
line belongs to the outermost function (or class body, or module) whose code
lists it, with lambdas and comprehensions folded into the function around
them, keyed ``module::qualname``.  A function counts as entered iff a
``call`` event fired on its code object (``def`` / ``async def`` only; two
defs under one key count as entered only when both are).

At the end of the session it prints the never-run lines by module and
function, the never-entered functions, and the totals, writes the same
report to ``dead_code_report.txt`` in the repository root, and fails the
run when a function's never-run line count differs from its
:data:`ALLOWED` entry: more means new code no test runs, fewer (or a key
with none) means a stale entry.  An "another process" entry is an upper
bound only: whether a child dies before its lines report is a race, so a
run that happens to see more of them is not a stale entry.
"""
from __future__ import annotations

import inspect
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
REPORT = ROOT / "dead_code_report.txt"

#: ``module::qualname`` -> (lines tier-1 never runs there, why they stay).
#: The reasons: the code runs in another process, it is a platform or
#: toolchain branch the CI box does not take, or it is abstract.  The last
#: group is the exception, and says so.
ALLOWED = {
    # abstract: every subclass overrides it
    "repro.api.schedule::Schedule._run": (1, "abstract"),
    "repro.api.schedule::Schedule.knobs": (1, "abstract default; every Schedule node overrides it"),
    "repro.api.schedule::Schedule.describe": (1, "abstract"),
    "repro.api.schedule::Schedule._fp": (1, "abstract"),
    "repro.cursors.cursor::Cursor._descriptor": (1, "abstract"),
    # another process: lines that run only in a child that dies before it can report
    "repro.backend.native::call_guarded.<locals>.first_run": (
        3, "another process: the guard child the kernel-segfault / kernel-hang fault kills"),
    "repro.persist.journal::Journal.append": (1, "another process: the kill harness's victim, SIGKILLed here"),
    "repro.persist.store::_publish": (1, "another process: the kill harness's victim, SIGKILLed here"),
    "repro.guard.quarantine::run_guarded": (
        6, "another process: the child exits between the watchdog's last poll and its kill, "
           "or while a grandchild still holds the pipe"),
    "repro.guard.quarantine::_child": (
        7, "another process / platform: the parent dies before the child arms its death signal or "
           "closes the pipe first; faulthandler or rlimits refused by the platform"),
    # platform: branches the CI box (Linux, glibc, CPython, a writable tmp) does not take
    "repro.guard.quarantine::<module>": (2, "platform: a libc without prctl (no parent-death signal)"),
    "repro.config::<module>": (1, "platform: an os.environ whose store is not a dict (not CPython)"),
    "repro.config::native_probe": (2, "platform: an os.environ whose store is not a dict (not CPython)"),
    "repro.backend.native::_prune": (4, "platform: a cache file that vanishes or cannot be stat'ed mid-prune"),
    "repro.backend.native::_resolve": (4, "platform: a stale artifact that cannot be removed; dlopen refusing a fresh build"),
    "repro.persist.store::_fsync_dir": (4, "platform: a directory that cannot be opened or fsynced"),
    "repro.persist.store::quarantine_file": (2, "platform: the rename aside fails (read-only or vanished file)"),
    "repro.persist.store::_cpu_model": (3, "platform: no model name in /proc/cpuinfo"),
    # not one of the reasons above: lines two known defects make unreachable
    # (ROADMAP, "Defects the line census turned up").  Each fix moves pinned
    # schedules and traces, so it is its own change; the entry goes with it.
    "repro.gemmini.schedule::_hoist_config_write": (
        1, "defect: no pattern matches a configuration write, so the hoist never starts"),
    "repro.stdlib.tiling::_hoist_out": (
        1, "defect: hoist_from_loop follows the loop cursor onto the hoisted statement, so no hoist counts"),
    "repro.stdlib.tiling::hoist_from_loop": (
        2, "defect: hoist_from_loop follows the loop cursor onto the hoisted statement, so no hoist counts"),
}

_prefix = str(PKG) + os.sep
_local = {}      # id(code) -> local tracer, or None (not ours, or every line seen)
_codes = []      # every code object in _local, kept alive so an id is never reused
_todo = {}       # id(code) -> its lines not yet run, for code under src/repro
_main_pid = os.getpid()
_dump_dir = None
_at_fork = None  # what the parent had seen when this child was forked


def _want(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def _first_call(code):
    _codes.append(code)
    if not code.co_filename.startswith(_prefix):
        _local[id(code)] = None
        return None
    todo = _todo[id(code)] = _want(code)
    discard, key = todo.discard, id(code)

    def local(frame, event, arg):
        if event == "line":
            discard(frame.f_lineno)
        elif event == "return" and not todo:
            _local[key] = None
        return local

    _local[key] = local
    return local


def _call(frame, event, arg):
    code = frame.f_code
    try:
        return _local[id(code)]
    except KeyError:
        return _first_call(code)


def _snapshot():
    """``{filename: lines run}`` and the entered ``(filename, line, qualname)``."""
    codes, lines, entered = {id(c): c for c in _codes}, {}, set()
    for key, todo in list(_todo.items()):
        code = codes[key]
        lines.setdefault(code.co_filename, set()).update(_want(code) - todo)
        entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))
    return lines, entered


def _after_fork_in_child():
    global _at_fork
    _at_fork = _snapshot()


def _exit(status, _real_exit=os._exit):
    if os.getpid() != _main_pid and _dump_dir and _at_fork is not None:
        try:
            lines, entered = _snapshot()
            old_lines, old_entered = _at_fork
            new = {f: sorted(ls - old_lines.get(f, set())) for f, ls in lines.items()}
            with open(os.path.join(_dump_dir, f"{os.getpid()}.json"), "w") as out:
                json.dump({"lines": {f: ls for f, ls in new.items() if ls},
                           "entered": sorted(entered - old_entered)}, out)
        except Exception:  # noqa: BLE001 - a lost dump must not change the child's exit
            pass
    _real_exit(status)


def _merged():
    lines, entered = _snapshot()
    for dump in pathlib.Path(_dump_dir).glob("*.json"):
        try:
            data = json.loads(dump.read_text())
        except ValueError:
            continue  # the child died mid-dump
        for f, ls in data["lines"].items():
            lines.setdefault(f, set()).update(ls)
        entered.update(tuple(e) for e in data["entered"])
    return lines, entered


def _module_name(path):
    rel = path.relative_to(PKG.parent).with_suffix("")
    return ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)


def _walk(code, module, owner, out):
    """Append ``(code, key, is_function)`` for ``code`` and everything nested
    in it to ``out``, outermost first; lambdas and comprehensions take the key
    of the scope around them."""
    named = code.co_name == "<module>" or not code.co_name.startswith("<")
    key = f"{module}::{code.co_qualname}" if named and code.co_name != "<module>" else owner
    out.append((code, key, named and bool(code.co_flags & inspect.CO_NEWLOCALS)))
    for const in code.co_consts:
        if inspect.iscode(const):
            _walk(const, module, key, out)
    return out


def census(lines_run=None, entered=None):
    """``{key: {"module", "first", "entered", "lines", "missed"}}`` over every
    function, class body and module in ``src/repro``."""
    if lines_run is None:
        lines_run, entered = _merged()
    found = {}
    for path in sorted(PKG.rglob("*.py")):
        module = _module_name(path)
        run = lines_run.get(str(path), set())
        owned = set()
        top = compile(path.read_text(), str(path), "exec")
        for code, key, is_function in _walk(top, module, f"{module}::<module>", []):
            row = found.setdefault(key, {"module": module, "first": code.co_firstlineno,
                                         "entered": None, "lines": set(), "missed": set()})
            if is_function:
                hit = (str(path), code.co_firstlineno, code.co_qualname) in entered
                row["entered"] = hit if row["entered"] is None else row["entered"] and hit
            mine = _want(code) - owned
            owned |= mine
            row["lines"] |= mine
            row["missed"] |= mine - run
    return found


def _ranges(lines):
    out, lines = [], sorted(lines)
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def _racy(why: str) -> bool:
    return why.startswith("another process")


def report(found, write=print) -> bool:
    """Print the never-run lines by module and function; True iff every
    function's count is its allow-list entry (at most it, for another
    process)."""
    missed = {k: len(r["missed"]) for k, r in found.items() if r["missed"]}
    modules = {}
    for key in sorted(missed, key=lambda k: (found[k]["module"], found[k]["first"])):
        modules.setdefault(found[key]["module"], []).append(key)
    bad = []
    for module, keys in modules.items():
        write(f"{module}: {sum(missed[k] for k in keys)} never run")
        for key in keys:
            row, (allowed, why) = found[key], ALLOWED.get(key, (0, "NOT ALLOWED"))
            if missed[key] > allowed or (missed[key] < allowed and not _racy(why)):
                bad.append(key)
                why = f"{why}; allowed {allowed}" if allowed else why
            state = "" if row["entered"] is not False else "  [never entered]"
            write(f"    {key.split('::', 1)[1]}{state}: {_ranges(row['missed'])}  -- {why}")
    stale = sorted(k for k in ALLOWED if k not in missed and not (k in found and _racy(ALLOWED[k][1])))
    for key in stale:
        write(f"allow-listed but {'fully run' if key in found else 'does not exist'}: {key}")
    functions = [r for r in found.values() if r["entered"] is not None]
    never = sum(1 for r in functions if not r["entered"])
    total = sum(len(r["lines"]) for r in found.values())
    write(f"{total - sum(missed.values())} of {total} lines run, {sum(missed.values())} never run; "
          f"{len(functions) - never} of {len(functions)} functions entered, {never} never entered "
          f"({len(bad)} functions off their allow-list count, {len(stale)} stale entries)")
    return not bad and not stale


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_sep("=", "line census: never run in src/repro")
    found = census()
    shutil.rmtree(_dump_dir, ignore_errors=True)
    lines = []

    def write(line):
        lines.append(line)
        reporter.write_line(line)

    ok = report(found, write)
    REPORT.write_text("\n".join(lines) + "\n")
    if not ok and session.exitstatus == 0:
        session.exitstatus = 1


if __name__ == "__main__":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "tools"), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "-q", "-p", "dead_code"],
                             cwd=ROOT, env=env))
else:
    _dump_dir = tempfile.mkdtemp(prefix="dead_code.")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    os._exit = _exit
    threading.settrace(_call)
    sys.settrace(_call)
