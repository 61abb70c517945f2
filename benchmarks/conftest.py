"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark module reproduces one table/figure of the paper's Section 7.
The fixtures here build the benchmark graphs once per session (at a scale that
keeps the whole suite in the minutes range on a laptop) and provide
``record_figure``, which renders the rows of a figure as an ASCII table,
prints it, and archives it under ``benchmarks/results/`` so every figure
can be regenerated with a single pytest invocation (README.md, "Tests and
benchmarks").

The shared paper-example builders are imported **explicitly** from
``tests/fixtures.py`` (never via the ambiguous ``conftest`` module name —
pytest imports every conftest as ``conftest``, so with two of them the name
resolves to whichever loaded first).

Set ``REPRO_BENCH_SCALE`` to override the dataset scale; CI runs the
benchmark entry points with a tiny scale purely as a smoke test so they
cannot silently rot.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

import pytest

from repro.datasets import benchmark_graph
from repro.obs import disable_tracing, enable_tracing
from repro.utils import render_table

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from fixtures import build_paper_g1, build_paper_g2, build_q3, build_q4  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

# Scales are chosen so that the full benchmark suite stays in the minutes
# range in pure Python; ``repro.datasets.benchmark_graph`` documents what a
# scale builds (hundreds of nodes at 1.0, far below the paper's graphs).
# REPRO_BENCH_SCALE overrides both (used by the CI smoke run).
_SCALE_OVERRIDE = os.environ.get("REPRO_BENCH_SCALE")
POKEC_SCALE = float(_SCALE_OVERRIDE) if _SCALE_OVERRIDE else 3.0
YAGO_SCALE = float(_SCALE_OVERRIDE) if _SCALE_OVERRIDE else 3.0
SYNTHETIC_SCALE = float(_SCALE_OVERRIDE) if _SCALE_OVERRIDE else 2.0

# REPRO_OBS=1 runs the whole benchmark session traced: the tracer is enabled
# before any benchmark executes, so every figure is also a check that the
# traced path gives the same answers.
_OBS_ENABLED = os.environ.get("REPRO_OBS", "").strip() not in ("", "0", "false")


@pytest.fixture(scope="session", autouse=True)
def _obs_instrumented_session():
    if not _OBS_ENABLED:
        yield
        return
    enable_tracing()
    yield
    disable_tracing()


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_provenance() -> Dict[str, object]:
    """Machine identity for one benchmark run, embedded in every BENCH json.

    Numbers without provenance are noise a month later: two BENCH files can
    only be compared once it is known they came from the same interpreter,
    core count and dataset scale.  Collected once per process (the git SHA
    subprocess is not free) and shared by every figure of the session.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "bench_scale": _SCALE_OVERRIDE or "default",
        "obs_instrumented": _OBS_ENABLED,
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


_PROVENANCE: Optional[Dict[str, object]] = None


def _provenance() -> Dict[str, object]:
    global _PROVENANCE
    if _PROVENANCE is None:
        _PROVENANCE = run_provenance()
    return _PROVENANCE


@pytest.fixture(scope="session")
def pokec_graph():
    return benchmark_graph("pokec", scale=POKEC_SCALE, seed=1)


@pytest.fixture(scope="session")
def yago_graph():
    return benchmark_graph("yago2", scale=YAGO_SCALE, seed=1)


@pytest.fixture(scope="session")
def synthetic_graph():
    return benchmark_graph("synthetic", scale=SYNTHETIC_SCALE, seed=1)


@pytest.fixture(scope="session")
def paper_g1_graph():
    return build_paper_g1()


@pytest.fixture(scope="session")
def paper_g2_graph():
    return build_paper_g2()


@pytest.fixture(scope="session")
def pattern_q3():
    return build_q3(p=2)


@pytest.fixture(scope="session")
def pattern_q4():
    return build_q4(p=2)


@pytest.fixture(scope="session")
def record_figure():
    """Return a callable that renders, prints and archives one figure table.

    Each figure is archived twice: the human-readable ASCII table
    (``<figure>.txt``, unchanged) and a machine-readable
    ``BENCH_<figure>.json`` carrying the same rows as keyed objects plus any
    *phases* timings (index build/serialize/load, cold vs warm pool costs)
    the benchmark measured — the artifact CI uploads so the perf trajectory
    of every figure is diffable across PRs instead of living in table
    screenshots.  Rows are the per-run medians the benches compute (every
    bench here runs ``rounds=1`` sweeps whose rows already aggregate the
    query mix).
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(figure: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
                title: str = "", phases: Optional[Mapping[str, float]] = None) -> str:
        table = render_table(headers, rows, title=title or figure)
        print()
        print(table)
        (RESULTS_DIR / f"{figure}.txt").write_text(table + "\n", encoding="utf-8")
        payload = {
            "figure": figure,
            "title": title or figure,
            "scale": _SCALE_OVERRIDE or "default",
            "headers": list(headers),
            "rows": [dict(zip(headers, row)) for row in rows],
            "phases": dict(phases) if phases else {},
            "provenance": _provenance(),
        }
        (RESULTS_DIR / f"BENCH_{figure}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        return table

    return _record
