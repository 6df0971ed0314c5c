"""A persisted result is keyed by the source that produced it.

Two caches persist results across processes: the native artifact cache (key
component ``emitter``, the source digest of ``native._EMITTER_PACKAGES``) and
the replay cache's disk tier (record names carry ``library_digest()``, the
source digest of ``cache._LIBRARY_PACKAGES``).  Each tuple must be its roots
plus every subpackage they import, transitively; otherwise an edit to a
package left out would load a result the old source produced.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.api import cache as cache_module
from repro.backend import native
from repro.blas import LEVEL1_KERNELS, optimize_level_1
from repro.machines import AVX2
from repro.persist import source_digest

REPRO = pathlib.Path(repro.__file__).resolve().parent
LIBRARIES = ("primitives", "stdlib", "blas", "halide", "gemmini")
SUBPACKAGES = {p.name: sorted(p.rglob("*.py")) for p in REPRO.iterdir() if (p / "__init__.py").exists()}
MODULES = {p.stem: [p] for p in REPRO.glob("*.py") if p.stem != "__init__"}


def _imports(path: pathlib.Path):
    """The names directly under ``repro`` that the file imports, wherever the
    import stands (lazy imports inside functions count; docstrings do not)."""
    package = path.relative_to(REPRO.parent).parent.parts  # ("repro", "backend")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            full = base + tuple(node.module.split(".")) if node.module else base
            if full == ("repro",):
                yield from (alias.name for alias in node.names)  # from .. import obs
            elif full[:1] == ("repro",):
                yield full[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1]


def _closure(roots) -> tuple:
    """The subpackages reachable from ``roots`` through imports, top-level
    modules followed too (they are not digested: none decides a result)."""
    units = {**SUBPACKAGES, **MODULES}
    seen, todo = set(), list(roots)
    while todo:
        unit = todo.pop()
        if unit in seen:
            continue
        seen.add(unit)
        for path in units[unit]:
            for name in _imports(path):
                assert name in units, f"{path.relative_to(REPRO)} imports repro.{name}, which is not a module"
                todo.append(name)
    return tuple(sorted(seen & set(SUBPACKAGES)))


@pytest.mark.parametrize(
    "packages, roots",
    [
        (native._EMITTER_PACKAGES, ("backend",)),
        (cache_module._LIBRARY_PACKAGES, LIBRARIES),
    ],
    ids=["emitter", "library"],
)
def test_each_source_digest_covers_the_import_closure_of_its_roots(packages, roots):
    """A package the roots import, however indirectly, changes what they
    produce (``tune/runner.py`` runs the interpreter, ``backend/native.py``
    writes through ``persist``), so it must move the key."""
    assert packages == _closure(roots)


def test_no_scheduling_library_is_in_the_emitter_digest():
    """A schedule edit moves only the artifact keys of the procedures it
    changes (through ``procedure_digest``), never every kernel's."""
    assert not set(native._EMITTER_PACKAGES) & {
        "stdlib", "blas", "halide", "gemmini", "primitives", "machines", "api", "tune",
    }


def test_a_library_only_edit_moves_no_artifact_key(monkeypatch):
    plain = LEVEL1_KERNELS["saxpy"]._root
    scheduled = optimize_level_1(LEVEL1_KERNELS["saxpy"], "i", "f32", AVX2, 2)._root
    before = [native.artifact_key(plain), native.artifact_key(scheduled)]
    monkeypatch.setattr(cache_module, "library_digest", lambda: "0" * 16)
    monkeypatch.setattr(
        native, "source_digest", lambda packages: "0" * 16 if set(packages) & set(LIBRARIES) else source_digest(packages)
    )
    assert [native.artifact_key(plain), native.artifact_key(scheduled)] == before
    monkeypatch.setattr(native, "source_digest", lambda packages: "0" * 16)
    assert native.artifact_key(plain) != before[0]  # while an emitter edit moves it


def test_the_source_digests_are_read_once_per_process():
    """``native.clear_memo()`` stands in for a fresh process before every
    ``first_result`` operation; the source does not change under a process,
    so its digests are not dropped with the memos."""
    root = LEVEL1_KERNELS["saxpy"]._root
    native.artifact_key(root)
    cache_module.library_digest()
    misses = source_digest.cache_info().misses
    native.clear_memo()
    native.artifact_key(root)
    assert cache_module.library_digest() is source_digest(cache_module._LIBRARY_PACKAGES)
    assert source_digest.cache_info().misses == misses
    assert len(source_digest(native._EMITTER_PACKAGES)) == 16


def test_the_source_digests_do_not_depend_on_the_hash_seed():
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "0"
    code = (
        "from repro.api import cache; from repro.backend import native; from repro.persist import source_digest; "
        "print(source_digest(native._EMITTER_PACKAGES), cache.library_digest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPRO.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [source_digest(native._EMITTER_PACKAGES), cache_module.library_digest()]
