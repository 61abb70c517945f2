"""Plain-text table rendering for benchmark reports.

Every benchmark in ``benchmarks/`` prints the rows / series of the figure it
reproduces.  The helpers here render aligned ASCII tables without any third
party dependency, so reports look the same on every machine and can be diffed
run over run (README.md, "Tests and benchmarks").
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["render_table", "render_series", "render_kv"]


def _stringify(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render *rows* under *headers* as an aligned ASCII table.

    >>> print(render_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.5
    """
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        padded = [cell.ljust(w) for cell, w in zip(row, widths)]
        lines.append(" | ".join(padded).rstrip())
    return "\n".join(lines)


def render_series(name: str, xs: Sequence[object], ys: Sequence[object]) -> str:
    """Render an (x, y) series as the two-column table used for figure data."""
    return render_table(["x", name], zip(xs, ys))


def render_kv(mapping: Mapping[str, object], title: str = "") -> str:
    """Render a mapping as an aligned ``key: value`` block."""
    if not mapping:
        return title
    width = max(len(str(key)) for key in mapping)
    lines = [title] if title else []
    for key, value in mapping.items():
        lines.append(f"{str(key).ljust(width)} : {_stringify(value)}")
    return "\n".join(lines)
