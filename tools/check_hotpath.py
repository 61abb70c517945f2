#!/usr/bin/env python3
"""Lint the matching/plan hot paths for throwaway set copies and row walks.

The enumeration and plan layers sit inside per-candidate and per-probe loops,
where ``pool & set(restriction)`` or ``candidates.copy()`` quietly
materialise a full copy on every call — the exact cost the compiled frozenset
row stores exist to avoid.  This check keeps such copies from creeping back.

Flagged in ``src/repro/matching/`` and ``src/repro/plan/``:

* a binary set operator applied to a fresh materialisation —
  ``& set(…)``, ``|= frozenset(…)``, ``- set(…)`` and friends
  (use ``intersection_update(iterable)`` / ``intersection(iterable)``
  instead);
* ``.copy()`` calls (hot-path structures are reused or rebuilt per epoch,
  never defensively copied per probe).

Flagged in the per-query filters — ``src/repro/graph/simulation.py`` and
``src/repro/matching/candidates.py``:

* ``csr.row(…)`` calls and ``range(start, end)`` loops, i.e. stepping
  through a CSR neighbour slice one Python iteration at a time.  These
  filters run as C-level set algebra over the compiled frozenset rows
  (``row.isdisjoint(pool)``, ``len(row & pool)``) instead.

Flagged in the functions that run once per focus candidate — DMatch's
per-candidate verification, its per-candidate conditioning on the focus,
and the anchored search's per-anchor entry and its enumeration loop, listed
by name in ``PER_CANDIDATE``:

* a nested ``def`` or ``lambda``: a closure rebuilt for every candidate.
  Build it once per query (DMatch's verifier and its focus conditioning,
  ``AnchoredSearch._bind``) instead.  A listed function that no longer
  exists is a finding too, so a rename cannot switch the rule off.

A line that is genuinely cold (a reference oracle, a one-off builder) opts
out with a trailing ``# hotpath: ok`` comment.  Comments and docstrings are
ignored via tokenization, so *mentioning* an idiom is fine.

Exit status 0 when clean; 1 otherwise (one line per finding).  CI runs it in
the docs job next to ``check_links.py``; run it locally with
``python tools/check_hotpath.py``.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

HOT_DIRS = ("src/repro/matching", "src/repro/plan")

FILTER_FILES = (
    "src/repro/graph/simulation.py",
    "src/repro/matching/candidates.py",
)

ESCAPE = "hotpath: ok"

# A binary set operator against a fresh set/frozenset materialisation: the
# right-hand side is built only to be thrown away after the operation.
_SET_COPY = re.compile(r"[&|\-^]=?\s*(?:frozen)?set\(")
_COPY_CALL = re.compile(r"\.copy\(\)")

PATTERNS = (
    (_SET_COPY, "binary set op against a fresh set() — intersect the iterable"),
    (_COPY_CALL, ".copy() on a hot path — reuse or rebuild per epoch"),
)

# A CSR slice walked in Python: ``csr.row(label, node)`` or a two-bound
# ``range(start, end)`` loop over its positions.
_CSR_ROW = re.compile(r"\.row\(")
_RANGE_WALK = re.compile(r"\brange\([^,()]+,[^,()]+\)")

FILTER_PATTERNS = (
    (_CSR_ROW, "CSR row walk in a per-query filter — use the compiled frozenset rows"),
    (_RANGE_WALK, "range(start, end) neighbour loop in a per-query filter — use set algebra"),
)


# Per file, the functions (at any nesting depth) that run once per focus
# candidate or per anchor, or deeper still, per extension.
PER_CANDIDATE = {
    "src/repro/matching/dmatch.py": (
        "_verify_focus_candidate",
        "conditioned_pools",
    ),
    "src/repro/matching/generic.py": ("run", "start", "extend"),
}


def code_lines(path: Path) -> dict[int, str]:
    """Line number -> source text with comments and docstrings blanked."""
    text = path.read_text(encoding="utf-8")
    lines = {number + 1: line for number, line in enumerate(text.splitlines())}
    drop: list[tuple[int, int, int, int]] = []  # (row0, col0, row1, col1)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenError:
        return lines
    previous_meaningful = None
    for token in tokens:
        if token.type == tokenize.COMMENT:
            drop.append((*token.start, *token.end))
        elif token.type == tokenize.STRING:
            # A string expression statement (docstring position): not code.
            if previous_meaningful in (None, tokenize.NEWLINE, tokenize.INDENT,
                                       tokenize.DEDENT):
                drop.append((*token.start, *token.end))
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous_meaningful = token.type
    for row0, col0, row1, col1 in drop:
        for row in range(row0, row1 + 1):
            line = lines.get(row, "")
            lo = col0 if row == row0 else 0
            hi = col1 if row == row1 else len(line)
            lines[row] = line[:lo] + " " * (hi - lo) + line[hi:]
    return lines


def scan(path: Path, patterns) -> list[str]:
    """One finding per (line, pattern) match in *path*, honouring the escape."""
    problems: list[str] = []
    raw = path.read_text(encoding="utf-8").splitlines()
    for number, line in code_lines(path).items():
        if ESCAPE in raw[number - 1]:
            continue
        for pattern, message in patterns:
            if pattern.search(line):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{number}: "
                    f"{message} [{raw[number - 1].strip()}]"
                )
    return problems


def closure_findings(path: Path, names) -> list[str]:
    """One finding per nested ``def``/``lambda`` inside the listed functions,
    plus one per listed function missing from *path*."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    raw = text.splitlines()
    relative = path.relative_to(REPO_ROOT)
    found = set()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in names:
            continue
        found.add(node.name)
        for inner in ast.walk(node):
            if inner is node or not isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if ESCAPE in raw[inner.lineno - 1]:
                continue
            problems.append(
                f"{relative}:{inner.lineno}: closure built per focus candidate "
                f"in {node.name}() — bind it once per query "
                f"[{raw[inner.lineno - 1].strip()}]"
            )
    for name in names:
        if name not in found:
            problems.append(f"{relative}: per-candidate function {name}() not found")
    return problems


def findings() -> list[str]:
    problems: list[str] = []
    for directory in HOT_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            problems.extend(scan(path, PATTERNS))
    for name in FILTER_FILES:
        problems.extend(scan(REPO_ROOT / name, FILTER_PATTERNS))
    for name, functions in PER_CANDIDATE.items():
        problems.extend(closure_findings(REPO_ROOT / name, functions))
    return problems


def main() -> int:
    problems = findings()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} hot-path idiom(s)", file=sys.stderr)
        return 1
    print(
        "hot paths clean: no throwaway set copies in matching/ or plan/, "
        "no CSR row walks in the per-query filters, "
        "no closures built per focus candidate"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
