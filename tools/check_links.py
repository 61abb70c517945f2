#!/usr/bin/env python3
"""Check that the repo's references to its own documents point at real files.

Two surfaces are checked:

* inline links in the markdown (README.md, docs/*.md, ROADMAP.md,
  CHANGES.md): a relative target — optionally carrying a ``#fragment`` —
  must exist on disk.  External links (``http(s)://``, ``mailto:``) and pure
  in-page anchors are ignored;
* every ``*.md`` name cited in the ``.py`` files under ``src/``,
  ``benchmarks/``, ``tools/`` and ``examples/`` (docstrings and comments
  included): the name must resolve against the repo root, the citing file's
  directory or ``docs/`` — so ``docs/SERVING.md``, a "README.md beside this
  file" and a bare ``OBSERVABILITY.md`` all count as resolved.

This is a repository-consistency check, not a crawler, so it needs no
network and cannot flake.

Exit status 0 when every reference resolves; 1 otherwise (one line per broken
reference).  CI runs it as part of the docs job; run it locally with
``python tools/check_links.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline markdown links: [text](target).  Reference-style links are not used
# in this repo; add a second pattern here if they ever are.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# A markdown file name cited in Python source.  A name starts with a word
# character, so glob patterns such as ``docs/*.md`` are not citations.
_CITATION = re.compile(r"(?<![\w./*-])(\w[\w./-]*\.md)\b")

CITING_DIRS = ("src", "benchmarks", "tools", "examples")


def markdown_files() -> list[Path]:
    files = [REPO_ROOT / name for name in ("README.md", "ROADMAP.md", "CHANGES.md")]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [path for path in files if path.exists()]


def broken_links() -> list[str]:
    problems: list[str] = []
    for path in markdown_files():
        text = path.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{line}: broken link -> {target}"
                )
    return problems


def python_files() -> list[Path]:
    return [
        path
        for directory in CITING_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]


def broken_citations() -> list[str]:
    problems: list[str] = []
    for path in python_files():
        text = path.read_text(encoding="utf-8")
        for match in _CITATION.finditer(text):
            name = match.group(1)
            bases = (REPO_ROOT, path.parent, REPO_ROOT / "docs")
            if not any((base / name).exists() for base in bases):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{line}: cites missing document -> {name}"
                )
    return problems


def main() -> int:
    problems = broken_links() + broken_citations()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} broken reference(s)", file=sys.stderr)
        return 1
    print(
        f"checked {len(markdown_files())} markdown files and "
        f"{len(python_files())} python files: all references resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
