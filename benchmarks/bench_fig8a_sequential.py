"""Figure 8(a): response time of the sequential engines (QMatch, QMatchN, Enum).

The paper fixes |Q| = (5, 7, 30%, 1) and reports the total response time of
QMatch, QMatchN (no incremental negation handling) and Enum (enumerate all
matches, then verify quantifiers) over YAGO2, Pokec (two query sizes) and a
larger synthetic graph.  This benchmark reproduces the same comparison on the
scaled-down datasets: the workload per dataset mixes the paper's example
patterns with generated queries of the same size signature.

An extra ``index-build`` row reports the one-off compilation of the graph
snapshot (``repro.index``) as its own phase, so the engine rows measure pure
query time and the table shows what the index costs to build.
"""

from __future__ import annotations

import pytest

from repro.bench import EngineSpec, run_engines, summarize_records
from repro.datasets import paper_pattern, workload_patterns
from repro.matching import EnumMatcher, QMatch

ENGINES = [
    EngineSpec("QMatch", lambda: QMatch()),
    EngineSpec("QMatchN", lambda: QMatch(use_incremental=False)),
    EngineSpec("Enum", lambda: EnumMatcher()),
]


def _workload(graph, dataset: str):
    """The per-dataset query mix of Exp-1: example patterns + generated queries."""
    if dataset == "pokec":
        patterns = [paper_pattern("Q1"), paper_pattern("Q2"), paper_pattern("Q3", p=2)]
    elif dataset == "yago2":
        patterns = [paper_pattern("Q4", p=2), paper_pattern("Q5")]
    else:
        patterns = []
    patterns += workload_patterns(graph, count=2, num_nodes=5, num_edges=7,
                                  ratio_percent=30.0, num_negated=1, seed=11)
    return patterns


def _run(graph, dataset):
    records = run_engines(ENGINES, _workload(graph, dataset), graph, prebuild_index=True)
    return summarize_records(records)


@pytest.mark.benchmark(group="fig8a")
@pytest.mark.parametrize("dataset", ["pokec", "yago2", "synthetic"])
def test_fig8a_sequential_engines(benchmark, dataset, pokec_graph, yago_graph,
                                  synthetic_graph, record_figure):
    graph = {"pokec": pokec_graph, "yago2": yago_graph, "synthetic": synthetic_graph}[dataset]
    summary = benchmark.pedantic(_run, args=(graph, dataset), rounds=1, iterations=1)
    rows = [
        [dataset, engine, stats["queries"], round(stats["elapsed"], 3),
         int(stats["work"]), int(stats["answers"])]
        for engine, stats in sorted(summary.items())
    ]
    record_figure(
        f"fig8a_{dataset}",
        ["dataset", "engine", "queries", "total_seconds", "total_work", "total_answers"],
        rows,
        title=f"Figure 8(a) — sequential engines on {dataset} "
              f"(|G| = {graph.num_nodes} nodes / {graph.num_edges} edges)",
    )
