#!/usr/bin/env python3
"""Check that intra-repo markdown links resolve, and that the ``repro``
imports the docs show still import.

Scans every ``*.md`` file in the repository (root and subdirectories,
excluding hidden/build directories), extracts inline links and images
(``[text](target)``), and verifies that

* relative file targets exist (resolved from the linking file's directory),
* ``#anchor`` fragments — same-file or cross-file — match a heading in the
  target document (GitHub-style slugs, with duplicate-heading ``-n``
  suffixes),
* nothing links outside the repository,
* every ``from repro... import ...`` line inside a code fence names a module
  that imports and names that resolve in it (an attribute or a submodule).

External schemes (``http(s)://``, ``mailto:``) are skipped.  Exits non-zero
listing every broken link and stale import.  Run from anywhere (``src/`` is
put on the import path)::

    python tools/check_doc_links.py
"""
from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules", ".venv"}
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:, ...
# inline links/images; deliberately simple — no reference-style links in-repo
LINK = re.compile(r"!?\[[^\]\n]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
CODE_FENCE = re.compile(r"^(```|~~~)")
FROM_IMPORT = re.compile(r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(.*)$")


def md_files():
    for path in sorted(REPO.rglob("*.md")):
        if not any(part in SKIP_DIRS or part.startswith(".") for part in path.parts[len(REPO.parts):-1]):
            yield path


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup-ish punctuation, lowercase,
    spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # unwrap inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    slugs: dict = {}
    out = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING.match(line)
        if m:
            slug = github_slug(m.group(1))
            n = slugs.get(slug, 0)
            slugs[slug] = n + 1
            out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def links_of(path: Path):
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK.finditer(line):
            yield lineno, m.group(1)


def fenced_imports(path: Path):
    """``(lineno, module, names)`` for each ``from repro... import ...`` in a
    code fence; a parenthesised name list may run over several lines."""
    in_fence = False
    pending = None
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE.match(line):
            in_fence, pending = not in_fence, None
            continue
        if not in_fence:
            continue
        if pending is not None:
            start, module, text = pending
            pending = (start, module, text + " " + line.split("#")[0])
        else:
            m = FROM_IMPORT.match(line)
            if not m:
                continue
            pending = (lineno, m.group(1), m.group(2).split("#")[0])
        start, module, text = pending
        if "(" in text and ")" not in text:
            continue
        pending = None
        names = [n.split(" as ")[0].strip() for n in text.strip(" ()").split(",")]
        yield start, module, [n for n in names if n and n != "*"]


def import_problems(module: str, names) -> list:
    try:
        mod = importlib.import_module(module)
    except Exception as err:  # noqa: BLE001 — any import failure is stale
        return [f"cannot import {module} ({type(err).__name__}: {err})"]
    out = []
    for name in names:
        if hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            out.append(f"{module} has no name {name!r}")
    return out


def main() -> int:
    failures = []
    files = list(md_files())
    checked = 0
    for md in files:
        for lineno, target in links_of(md):
            if EXTERNAL.match(target):
                continue
            checked += 1
            where = f"{md.relative_to(REPO)}:{lineno}"
            raw, _, fragment = target.partition("#")
            dest = md if not raw else (md.parent / raw).resolve()
            if raw:
                if not dest.exists():
                    failures.append(f"{where}: broken path {target!r}")
                    continue
                try:
                    dest.relative_to(REPO)
                except ValueError:
                    failures.append(f"{where}: {target!r} escapes the repository")
                    continue
            if fragment:
                if dest.is_dir() or dest.suffix.lower() != ".md":
                    failures.append(f"{where}: anchor on non-markdown target {target!r}")
                elif fragment.lower() not in anchors_of(dest):
                    failures.append(f"{where}: no heading for anchor {target!r}")
    imports = 0
    for md in files:
        for lineno, module, names in fenced_imports(md):
            imports += 1
            for problem in import_problems(module, names):
                failures.append(f"{md.relative_to(REPO)}:{lineno}: stale import: {problem}")
    print(
        f"checked {checked} intra-repo links and {imports} repro imports "
        f"across {len(files)} markdown files"
    )
    if failures:
        print("BROKEN LINKS / IMPORTS:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("all links and imports resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
