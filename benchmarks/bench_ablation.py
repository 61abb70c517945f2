"""Ablation study: the individual optimisations of QMatch and DPar.

Not a figure of the paper, but the design choices of its QMatch and DPar
(PAPER.md) deserve their own measurements:

* the dual-simulation candidate pre-filter (Lemma 13),
* early termination on monotone quantifiers,
* the MKP assignment inside DPar versus a plain greedy fallback.

Each row reports the wall time and total work of the engine with exactly one
switch toggled (and with both off), on the same Pokec workload, so the
contribution of every optimisation can be read off directly.  Work is exact
and deterministic, so each switch is checked to cut it: the full engine
does less than either single ablation, and each of those less than both
switches off.
"""

from __future__ import annotations

import pytest

from repro.datasets import paper_pattern
from repro.matching import DMatchOptions, QMatch
from repro.parallel import DPar
from repro.parallel.mkp import KnapsackItem, greedy_mkp, mkp_assign
from repro.utils import Timer

CONFIGS = {
    "full": DMatchOptions(),
    "no-simulation": DMatchOptions(use_simulation=False),
    "no-early-exit": DMatchOptions(early_exit=False),
    "none": DMatchOptions(use_simulation=False, early_exit=False),
}


def _qmatch_ablation(graph):
    patterns = [paper_pattern("Q1"), paper_pattern("Q2"), paper_pattern("Q3", p=2)]
    rows = []
    answers = {}
    for name, options in CONFIGS.items():
        engine = QMatch(options=options)
        work = 0
        with Timer() as timer:
            for pattern in patterns:
                result = engine.evaluate(pattern, graph)
                work += result.counter.total_work()
                answers.setdefault(pattern.name, set()).add(frozenset(result.answer))
        rows.append([name, round(timer.elapsed, 3), work])
    # Every configuration must return identical answers.
    assert all(len(variants) == 1 for variants in answers.values())
    work = {name: total for name, _, total in rows}
    assert work["full"] < work["no-early-exit"] < work["none"], work
    assert work["full"] < work["no-simulation"] < work["none"], work
    return rows


def _dpar_ablation(graph):
    rows = []
    for workers in (4, 8):
        partition = DPar(d=2, seed=0).partition(graph, workers)
        rows.append(
            ["dpar-mkp", workers, round(partition.elapsed, 3), round(partition.skew(), 3),
             round(partition.replication_factor(), 2)]
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_qmatch_optimisations(benchmark, pokec_graph, record_figure):
    rows = benchmark.pedantic(_qmatch_ablation, args=(pokec_graph,), rounds=1, iterations=1)
    record_figure(
        "ablation_qmatch",
        ["configuration", "seconds", "total_work"],
        rows,
        title="Ablation — QMatch optimisation switches on the Pokec workload",
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_partition_quality(benchmark, pokec_graph, record_figure):
    rows = benchmark.pedantic(_dpar_ablation, args=(pokec_graph,), rounds=1, iterations=1)
    record_figure(
        "ablation_dpar",
        ["partitioner", "workers", "seconds", "skew", "replication"],
        rows,
        title="Ablation — DPar partition quality",
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_mkp_vs_greedy(benchmark, record_figure):
    """The exchange pass of mkp_assign packs at least as many items as greedy."""

    def run():
        items = [KnapsackItem(f"i{k}", weight=1.0 + (k % 5)) for k in range(60)]
        capacities = [25.0, 20.0, 15.0]
        _, greedy_unassigned = greedy_mkp(items, capacities)
        _, improved_unassigned = mkp_assign(items, capacities)
        return [
            ["greedy", len(items) - len(greedy_unassigned)],
            ["greedy+exchange", len(items) - len(improved_unassigned)],
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(
        "ablation_mkp",
        ["assignment", "items_packed"],
        rows,
        title="Ablation — MKP assignment quality",
    )
    assert rows[1][1] >= rows[0][1]
