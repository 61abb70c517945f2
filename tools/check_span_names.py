#!/usr/bin/env python3
"""Lint: span names agree across the source, the docs and the benchmark.

Spans are the per-layer time store: ``benchmarks/e2e`` attributes a
request's wall time to the span names listed in ``BENCHMARK.json``'s
``per_layer`` block (``span.<name>.self_ms``), and ``docs/OBSERVABILITY.md``
carries the authoritative table of every span the program emits (section
"Span namespace").  A renamed span would silently turn a benchmark row into
"not measured" and leave a stale docs row behind, so this check fails when:

* a ``span.<name>.self_ms`` row of ``BENCHMARK.json`` (read only) has no
  span named ``<name>`` in ``src/``;
* a span name used in ``src/`` is missing from the docs table;
* a docs table row names a span with no call site left in ``src/``.

A span name counts as used in ``src/`` when it is the first argument of a
``span("…")`` / ``record_span("…")`` call, or the value of a ``SPAN_*``
class constant (the request pipeline names its batch and queue-wait spans
per tier that way).

Exit status 0 when clean; 1 otherwise (one line per problem).  CI runs it in
the docs job next to ``check_links.py``; run it locally with
``python tools/check_span_names.py``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
DOCS_TABLE = REPO_ROOT / "docs" / "OBSERVABILITY.md"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

_CALL = re.compile(r"\b(?:record_)?span\(\s*\"([^\"]+)\"")
_CONSTANT = re.compile(r"\bSPAN_[A-Z_]+\s*=\s*\"([^\"]+)\"")
_PER_LAYER = re.compile(r"^span\.(.+)\.self_ms$")
_TABLE_HEADING = "## 10. Span namespace"


def used_names() -> dict[str, list[str]]:
    """Span names in ``src/``, mapped to the ``path:line`` sites using them."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for pattern in (_CALL, _CONSTANT):
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                sites.setdefault(match.group(1), []).append(
                    f"{path.relative_to(REPO_ROOT)}:{line}"
                )
    return sites


def documented_names() -> set[str]:
    """Backticked names in the span column of the docs namespace table."""
    text = DOCS_TABLE.read_text(encoding="utf-8")
    start = text.find(_TABLE_HEADING)
    if start < 0:
        return set()
    names: set[str] = set()
    for line in text[start:].splitlines()[1:]:
        if line.startswith("## "):
            break
        cells = line.split(" | ")
        if line.startswith("| ") and len(cells) >= 3:
            names.update(re.findall(r"`([^`]+)`", cells[1]))
    return names


def benchmarked_names() -> set[str]:
    """``<name>`` of every ``span.<name>.self_ms`` per-layer benchmark row."""
    rows = json.loads(BENCHMARK.read_text(encoding="utf-8")).get("per_layer", [])
    names = set()
    for row in rows:
        match = _PER_LAYER.match(row.get("name", ""))
        if match:
            names.add(match.group(1))
    return names


def main() -> int:
    used = used_names()
    documented = documented_names()
    if not documented:
        print(f"{DOCS_TABLE}: no {_TABLE_HEADING!r} table found", file=sys.stderr)
        return 1
    problems = 0
    for name in sorted(benchmarked_names() - set(used)):
        problems += 1
        print(
            f"{BENCHMARK.name} measures span {name!r} (span.{name}.self_ms) "
            "but no call site in src/ emits it"
        )
    for name in sorted(set(used) - documented):
        problems += 1
        print(
            f"undocumented span {name!r} (add it to {DOCS_TABLE.name}'s "
            f"span namespace table): used at {', '.join(used[name])}"
        )
    for name in sorted(documented - set(used)):
        problems += 1
        print(
            f"documented span {name!r} has no call site left in src/ "
            "(drop the table row or restore the span)"
        )
    if problems:
        return 1
    print(
        f"check_span_names: {len(used)} span names used, all documented "
        f"and every benchmarked span emitted."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
