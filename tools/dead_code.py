#!/usr/bin/env python3
"""Function census: which functions in ``src/repro`` does tier-1 never enter?

    PYTHONPATH=src python tools/dead_code.py

Runs the tier-1 suite (``python -m pytest -q``) with this file loaded as a
pytest plugin.  The plugin arms ``sys.setprofile`` / ``threading.setprofile``
when it is imported -- before ``conftest.py`` imports ``repro`` -- so
import-time calls (decorators, registrations) count.  At the end of the
session it lists every ``src/repro`` function never entered, grouped by
module, and fails the run when

* a never-entered function is not in :data:`ALLOWED`, or
* an :data:`ALLOWED` function was entered or no longer exists.

A function is a code object with ``CO_NEWLOCALS`` (``def`` / ``async def``),
keyed ``module::qualname`` (two defs under one key count as entered only
when both are); lambdas, comprehensions, generator expressions and class
bodies are not counted.  Calls made in a forked child or another
process are not seen: such functions are allowed here with that reason.
"""
from __future__ import annotations

import inspect
import os
import pathlib
import subprocess
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"

#: Functions tier-1 never enters, each with why it stays.
ALLOWED = {
    # run in another process, which the profiler does not follow
    "repro.guard.quarantine::_child": "runs in the guard's forked child",
    "repro.backend.native::call_guarded.<locals>.first_run": "runs in the guard's forked child",
    "repro.service.__main__::main": "the service subprocess's entry point",
    "repro.service.__main__::main.<locals>.run": "the service subprocess's event loop",
    # names the parser reads in object code; Python never calls them
    "repro.lang::seq": "loop keyword read by the parser",
    "repro.lang::par": "loop keyword read by the parser",
    "repro.lang::stride": "stride keyword read by the parser",
    # abstract: every subclass overrides it
    "repro.api.schedule::Schedule._run": "abstract",
    "repro.api.schedule::Schedule.knobs": "abstract default; every Schedule node overrides it",
    "repro.api.schedule::Schedule.describe": "abstract",
    "repro.api.schedule::Schedule._fp": "abstract",
    "repro.cursors.cursor::Cursor._descriptor": "abstract",
}

_entered = {}  # id(code) -> code, for code objects under src/repro
_prefix = str(PKG) + os.sep


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_prefix):
            _entered[id(code)] = code


def _functions(code, module):
    """Yield ``(key, firstlineno)`` for every function code object nested in
    ``code`` (a module's code), skipping ``<lambda>`` and comprehensions."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield f"{module}::{const.co_qualname}", const.co_firstlineno
            yield from _functions(const, module)


def census():
    """``{key: [firstlineno, entered]}`` over every function in ``src/repro``."""
    hit = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in list(_entered.values())}
    found = {}
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG.parent).with_suffix("")
        module = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
        code = compile(path.read_text(), str(path), "exec")
        for key, line in _functions(code, module):
            entered = (str(path), line, key.split("::", 1)[1]) in hit
            if key in found:
                found[key][1] = found[key][1] and entered
            else:
                found[key] = [line, entered]
    return found


def report(found, write=print) -> bool:
    """Print the never-entered functions by module; True iff they are exactly
    the allow-list."""
    dead = {k for k, (_, entered) in found.items() if not entered}
    by_module = {}
    for key in sorted(dead, key=lambda k: (k.split("::")[0], found[k][0])):
        by_module.setdefault(key.split("::")[0], []).append(key)
    for module, keys in by_module.items():
        write(module)
        for key in keys:
            qualname = key.split("::", 1)[1]
            why = ALLOWED.get(key, "NOT ALLOWED")
            write(f"    {found[key][0]:5d}  {qualname}  -- {why}")
    unlisted = sorted(dead - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - dead)
    for key in stale:
        state = "was entered" if key in found else "does not exist"
        write(f"allow-listed but {state}: {key}")
    write(f"{len(found) - len(dead)} of {len(found)} functions entered, "
          f"{len(dead)} never entered ({len(unlisted)} not allow-listed, "
          f"{len(stale)} stale allow-list entries)")
    return not unlisted and not stale


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_sep("=", "function census: never entered in src/repro")
    if not report(census(), reporter.write_line) and session.exitstatus == 0:
        session.exitstatus = 1


if __name__ == "__main__":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "tools"), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "-q", "-p", "dead_code"],
                             cwd=ROOT, env=env))
else:
    threading.setprofile(_hook)
    sys.setprofile(_hook)
