"""Shared experiment harness used by every benchmark under ``benchmarks/``.

Each figure of the paper compares a fixed set of algorithms while sweeping one
parameter (number of processors, pattern size, number of negated edges, ratio
threshold, graph size).  The harness factors out the common loop: build the
workload once, run every engine on every query, and collect per-engine rows
(response time, work, answer sizes) that the benchmark then prints with
:func:`repro.utils.tables.render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.graph.digraph import PropertyGraph
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.tables import render_table
from repro.utils.timing import Timer

__all__ = [
    "EngineSpec",
    "RunRecord",
    "run_engines",
    "summarize_records",
    "records_to_table",
    "INDEX_BUILD_ENGINE",
    "INDEX_SERIALIZE_ENGINE",
    "INDEX_LOAD_ENGINE",
]


@dataclass(frozen=True)
class EngineSpec:
    """A named engine factory: ``build()`` must return an object with ``evaluate_answer``."""

    name: str
    build: Callable[[], object]


@dataclass
class RunRecord:
    """One engine × one query measurement."""

    engine: str
    pattern: str
    elapsed: float
    answer_size: int
    work: int = 0
    extras: Dict[str, float] = field(default_factory=dict)


INDEX_BUILD_ENGINE = "index-build"
INDEX_SERIALIZE_ENGINE = "index-serialize"
INDEX_LOAD_ENGINE = "index-load"


def run_engines(
    engines: Sequence[EngineSpec],
    patterns: Sequence[QuantifiedGraphPattern],
    graph: PropertyGraph,
    prebuild_index: bool = False,
    warmup: bool = True,
) -> List[RunRecord]:
    """Run every engine on every pattern and record time, work and answer size.

    With *prebuild_index*, the compiled
    :class:`repro.index.GraphIndex` snapshot — including the merged
    undirected neighbourhood CSR the partitioner BFS runs on — is built
    **before** the engine loop and its build time is reported as a separate
    phase — a synthetic ``index-build`` record — instead of being silently
    folded into the first engine's first query.  Engines then measure pure
    query time, which is the comparison the figures need.

    With *warmup* (the default) every engine evaluates the first pattern once
    untimed before its measured sweep.  The engines run one after another in
    a single process, so without this the first engine absorbs the process's
    cold allocator/branch-predictor state and one-shot comparisons between
    near-equal engines systematically favour whichever happens to run later.

    The prebuild additionally times the snapshot **wire format**
    (:mod:`repro.index.serialize`) as two more synthetic phases:
    ``index-serialize`` (``to_bytes``, with the byte size in the extras) and
    ``index-load`` (``from_bytes`` bound back to the live graph, with its
    speedup over ``GraphIndex.build`` in the extras) — the cold-start /
    fragment-shipping cost the parallel benchmarks reason about, tracked
    per figure in the archived ``BENCH_*.json`` results.
    """
    records: List[RunRecord] = []
    if prebuild_index:
        from repro.index.serialize import from_bytes, to_bytes
        from repro.index.snapshot import GraphIndex

        with Timer() as build_timer:
            snapshot = GraphIndex.for_graph(graph, rebuild=True)
            neighborhoods = snapshot.neighborhoods()
            snapshot.precompile_rows()
        records.append(
            RunRecord(
                engine=INDEX_BUILD_ENGINE,
                pattern="*",
                elapsed=build_timer.elapsed,
                answer_size=0,
                work=0,
                extras={
                    "indexed_nodes": float(snapshot.num_nodes),
                    "edge_labels": float(len(snapshot.edge_labels)),
                    "neighborhood_build_seconds": neighborhoods.build_seconds,
                },
            )
        )
        with Timer() as serialize_timer:
            snapshot_bytes = to_bytes(snapshot)
        records.append(
            RunRecord(
                engine=INDEX_SERIALIZE_ENGINE,
                pattern="*",
                elapsed=serialize_timer.elapsed,
                answer_size=0,
                work=0,
                extras={"snapshot_bytes": float(len(snapshot_bytes))},
            )
        )
        with Timer() as load_timer:
            from_bytes(snapshot_bytes, graph=graph)
        records.append(
            RunRecord(
                engine=INDEX_LOAD_ENGINE,
                pattern="*",
                elapsed=load_timer.elapsed,
                answer_size=0,
                work=0,
                extras={
                    "build_seconds": snapshot.build_seconds,
                    "load_speedup_vs_build": (
                        snapshot.build_seconds / load_timer.elapsed
                        if load_timer.elapsed > 0.0
                        else 0.0
                    ),
                },
            )
        )
        # The load bound a freshly decoded (row-store-cold) index to the
        # graph; re-attach the fully warmed snapshot so the engine loop below
        # measures pure query time, as documented.
        graph.cache_index(snapshot)
    for spec in engines:
        engine = spec.build()
        if warmup and patterns:
            engine.evaluate(patterns[0], graph)
        for pattern in patterns:
            with Timer() as timer:
                result = engine.evaluate(pattern, graph)
            work = result.counter.total_work() if hasattr(result, "counter") else 0
            extras: Dict[str, float] = {}
            if hasattr(result, "work_speedup"):
                extras["work_speedup"] = result.work_speedup
                extras["work_skew"] = result.work_skew
                extras["makespan_work"] = float(result.makespan_work)
            records.append(
                RunRecord(
                    engine=spec.name,
                    pattern=pattern.name,
                    elapsed=timer.elapsed,
                    answer_size=len(result.answer),
                    work=work,
                    extras=extras,
                )
            )
    return records


def summarize_records(records: Sequence[RunRecord]) -> Dict[str, Dict[str, float]]:
    """Aggregate records per engine: total time, total work, total answers."""
    summary: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = summary.setdefault(
            record.engine, {"elapsed": 0.0, "work": 0.0, "answers": 0.0, "queries": 0.0}
        )
        entry["elapsed"] += record.elapsed
        entry["work"] += record.work
        entry["answers"] += record.answer_size
        entry["queries"] += 1
    return summary


def records_to_table(records: Sequence[RunRecord], title: str = "") -> str:
    """Render per-engine aggregates as the ASCII table printed by benchmarks."""
    summary = summarize_records(records)
    rows = [
        [engine, stats["queries"], stats["elapsed"], stats["work"], stats["answers"]]
        for engine, stats in sorted(summary.items())
    ]
    return render_table(
        ["engine", "queries", "total_seconds", "total_work", "total_answers"], rows, title=title
    )
