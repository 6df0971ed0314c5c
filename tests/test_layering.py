"""Layering, checked on the source text: who may import whom, who may read
the environment, who may keep process-wide counters."""

from __future__ import annotations

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = {p.relative_to(SRC).as_posix(): p for p in sorted(SRC.rglob("*.py"))}


def _imported(rel: str, node):
    """What one import statement of module ``rel`` imports, as absolute dotted
    names, with the names a ``from`` import pulls in appended (``from ..
    import obs`` is ``repro.obs``)."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        package = ("repro/" + rel).split("/")[:-1]
        base = package[: len(package) - node.level + 1] if node.level else []
        base = ".".join(base + ([node.module] if node.module else []))
        yield base
        yield from (f"{base}.{alias.name}" for alias in node.names)


def _imports(rel: str):
    """Every module ``rel`` imports — at module level or inside a function."""
    for node in ast.walk(ast.parse(MODULES[rel].read_text())):
        yield from _imported(rel, node)


def _inside(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_obs_and_config_are_leaves():
    for rel in ("obs.py", "config.py"):
        assert [m for m in _imports(rel) if _inside(m, "repro")] == [], rel


def test_ir_and_core_import_nothing_above_them():
    upward = {
        rel: sorted({m for m in _imports(rel) if _inside(m, "repro.primitives") or _inside(m, "repro.api")})
        for rel in MODULES
        if rel.startswith(("ir/", "core/"))
    }
    assert {rel: ms for rel, ms in upward.items() if ms} == {}


def test_the_api_imports_no_scheduling_library():
    """``repro.api`` is the layer the libraries are written against: no module
    under it imports one, at module level or inside a function."""
    libraries = ("repro.stdlib", "repro.blas", "repro.halide", "repro.gemmini")
    upward = {
        rel: sorted({m for m in _imports(rel) if any(_inside(m, lib) for lib in libraries)})
        for rel in MODULES
        if rel.startswith("api/")
    }
    assert {rel: ms for rel, ms in upward.items() if ms} == {}


def test_the_edit_engine_imports_at_module_level_only():
    tree = ast.parse(MODULES["ir/edit.py"].read_text())
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


def test_only_config_reads_repro_variables():
    """``config.py`` is the one reader of the environment: the ``REPRO_*``
    switches and the toolchain's ``CC`` / ``PATH`` alike."""
    reads_env = re.compile(r"\bos\.environ\b|\bgetenv\b")
    readers = {rel for rel, p in MODULES.items() if reads_env.search(p.read_text())}
    assert readers == {"config.py"}


def test_only_obs_keeps_process_wide_counters():
    """No module-level ``*_stats`` / ``reset_*_stats`` / ``clear_*_stats``
    function outside ``obs.py`` (per-object ``.stats()`` methods are an
    instance's own business)."""
    stats_fn = re.compile(r"^\w*_stats$")
    offenders = {
        rel: names
        for rel, p in MODULES.items()
        if rel != "obs.py"
        and (
            names := [
                node.name
                for node in ast.parse(p.read_text()).body
                if isinstance(node, ast.FunctionDef) and stats_fn.match(node.name)
            ]
        )
    }
    assert offenders == {}


def test_only_analysis_reasons_about_index_expressions():
    """No function outside ``analysis/`` is named like an affine decomposer,
    a non-negativity check or a "constant int" helper: the lowerers ask
    ``analysis/linear`` (``decompose`` / ``const_value`` / ``FactEnv``), so a
    second analyser cannot grow back beside it."""
    analyser = re.compile(r"affine|nonneg|_const_int|_split_const")
    offenders = {
        rel: names
        for rel, p in MODULES.items()
        if not rel.startswith("analysis/")
        and (
            names := [
                node.name
                for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and analyser.search(node.name)
            ]
        )
    }
    assert offenders == {}


LIBRARIES = ("stdlib/", "blas/", "halide/", "gemmini/")


def _swallows(tree) -> int:
    """The ``except`` handlers under ``tree`` that catch a scheduling refusal
    and do not re-raise."""
    refusal = {"SchedulingError", "InvalidCursorError"}
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and refusal & {x.id for x in ast.walk(node.type) if isinstance(x, ast.Name)}
        and not any(isinstance(x, ast.Raise) for x in ast.walk(node))
    )


def test_library_schedules_do_not_swallow_refusals():
    """A step that may be refused goes through ``repro.api.attempt`` (spelled
    ``try_`` / ``try_op`` / ``try_else`` / ``repeat``), which rolls back and
    leaves a ``recovered`` trace entry: in ``api/`` and the library packages
    no other handler swallows a refusal."""
    trees = {
        rel: ast.parse(p.read_text()) for rel, p in MODULES.items() if rel.startswith(LIBRARIES + ("api/",))
    }
    census = {rel: n for rel, tree in trees.items() if (n := _swallows(tree))}
    assert census == {"api/schedule.py": 1, "stdlib/elevate.py": 2}, (
        "only the helper, and Figure 5b's hoist_stmt_loop (the paper's listing, kept verbatim, "
        "try/except and all), may swallow a refusal"
    )
    (helper,) = [
        fn for fn in trees["api/schedule.py"].body if isinstance(fn, ast.FunctionDef) and fn.name == "attempt"
    ]
    assert _swallows(helper) == 1


def test_the_libraries_are_user_code():
    """The scheduling libraries act through the trusted primitives only: none
    opens an edit session or derives a procedure itself; they sit *above*
    ``api`` (which imports none of them at module level), so their own
    imports are all at the top; and the lines that reach under a cursor
    (``._node()`` / ``._root`` / ``._path``) are a bound that may only shrink."""
    library = {rel: p.read_text() for rel, p in MODULES.items() if rel.startswith(LIBRARIES)}
    unchecked = re.compile(r"EditSession|ir\.edit|_derive")
    assert {rel for rel, text in library.items() if unchecked.search(text)} == set()

    upward = {
        rel: names
        for rel, p in MODULES.items()
        if rel.startswith("api/")
        and (
            names := [
                m
                for node in ast.parse(p.read_text()).body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for m in _imported(rel, node)
                if any(_inside(m, "repro." + lib.rstrip("/")) for lib in LIBRARIES)
            ]
        )
    }
    assert upward == {}

    late = {}
    for rel, text in library.items():
        tree = ast.parse(text)
        first = next(
            node.lineno
            for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))  # the docstring
        )
        lines = [
            n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) and n.lineno > first
        ]
        if lines:
            late[rel] = lines
    assert late == {}

    under_a_cursor = re.compile(r"\._node\(\)|\._root\b|\._path\b")
    assert sum(len(under_a_cursor.findall(line)) > 0 for text in library.values() for line in text.splitlines()) <= 30


def test_the_layers_under_the_schedulers_import_nothing_above_them():
    """``backend``, ``interp``, ``guard`` and ``persist`` serve the tuner, the
    ``Schedule`` API and the service; an upward import (even inside a
    function, even inside ``try``) makes their behaviour depend on whether the
    layer above happens to import."""
    upward = {
        rel: sorted(
            {m for m in _imports(rel) if any(_inside(m, f"repro.{up}") for up in ("tune", "api", "service"))}
        )
        for rel in MODULES
        if rel.startswith(("backend/", "interp/", "guard/", "persist/"))
    }
    assert {rel: ms for rel, ms in upward.items() if ms} == {}


def test_only_the_guard_forks():
    """``guard/quarantine.py`` is the one place work runs in a disposable
    process: no other module calls ``os.fork``, none imports
    ``multiprocessing`` or a ``ProcessPoolExecutor``, and none arms a
    ``SIGALRM`` timer (a Python handler cannot stop a native call)."""
    forkers, pools, alarms = set(), set(), set()
    for rel, path in MODULES.items():
        tree = ast.parse(path.read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imported = set(_imports(rel))
        if "fork" in names or "os.fork" in imported:
            forkers.add(rel)
        if "ProcessPoolExecutor" in names or any(
            _inside(m, "multiprocessing") or m.endswith(".ProcessPoolExecutor") for m in imported
        ):
            pools.add(rel)
        if names & {"SIGALRM", "setitimer"} or {"signal.SIGALRM", "signal.setitimer"} & imported:
            alarms.add(rel)
    assert forkers == {"guard/quarantine.py"}
    assert pools == set()
    assert alarms == set()


def test_primitives_resolve_expression_arguments_through_one_front_door():
    """Under ``primitives/`` only ``_base.py`` (``to_expr``) imports the
    parser, and no registered primitive takes an ``unsafe…`` parameter: there
    is no unchecked mode."""
    importers = {
        rel
        for rel in MODULES
        if rel.startswith("primitives/") and any(_inside(m, "repro.frontend.parser") for m in _imports(rel))
    }
    assert importers == {"primitives/_base.py"}

    import inspect

    import repro  # noqa: F401  (registers every primitive and library op)
    from repro.primitives._base import PRIMITIVE_REGISTRY

    unsafe = {
        name: params
        for name, fn in PRIMITIVE_REGISTRY.items()
        if (params := [p for p in inspect.signature(fn).parameters if p.startswith("unsafe")])
    }
    assert PRIMITIVE_REGISTRY and unsafe == {}
