"""The serving tiers run the one matching path, and say which strategy ran.

* Serving keeps no per-fingerprint state that pins a graph epoch: after k
  delta batches exactly one :class:`~repro.index.GraphIndex` snapshot per
  served graph is alive — the current one — on a ``QueryService`` and on
  every ``ShardedService`` shard.
* Slow-query and flight records carry the strategy the computation ran,
  read off its work counter by the rule EXPLAIN uses: ``fixpoint`` or
  ``search (<reason>)``; cache hits carry none.
* Serving compiles no plan on either tier; ``explain()`` compiles one per
  call.
"""

from __future__ import annotations

import gc

import pytest

from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.delta import GraphDelta
from repro.index import GraphIndex
from repro.matching import QMatch
from repro.matching.qmatch import query_strategy, strategy_label
from repro.parallel import PQMatch
from repro.plan import plan_compile_count
from repro.serve import ShardedService
from repro.service import QueryService

from fixtures import build_paper_g1, build_q2, build_q3


def live_snapshots(graph):
    """Every snapshot of *graph* still reachable after a full collection."""
    gc.collect()
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, GraphIndex) and obj.graph is graph
    ]


def toggle_edge(graph, step: int) -> GraphDelta:
    """Insert an edge absent from *graph*, or delete the one inserted before."""
    source, target = sorted(graph.nodes_with_label("person"), key=str)[:2]
    edge = [(source, target, "probe")]
    if step % 2 == 0:
        return GraphDelta.build(edge_inserts=edge)
    return GraphDelta.build(edge_deletes=edge)


@pytest.fixture(scope="module")
def social():
    graph = benchmark_graph("pokec", scale=0.2, seed=41)
    return graph, workload_patterns(graph, count=8, num_nodes=3, num_edges=2, seed=7)


DELTAS = 6


class TestOneSnapshotPerServedGraph:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_query_service_keeps_only_the_current_snapshot(self, social, workers):
        # workers=2 serves through DPar fragments: each fragment graph is a
        # served graph too.
        graph, patterns = social
        graph = graph.copy()
        with QueryService(graph, PQMatch(num_workers=workers, d=2)) as service:
            service.evaluate_many(patterns)
            for step in range(DELTAS):
                service.apply_delta(toggle_edge(graph, step))
                service.cache.clear()
                # One pattern re-served per epoch; the rest stay cold.
                service.evaluate(patterns[step % len(patterns)])
            alive = live_snapshots(graph)
            assert alive == [GraphIndex.for_graph(graph)]
            assert alive[0].version == graph.version
            partition = service.coordinator.current_partition
            for fragment in partition.fragments if workers > 1 else ():
                fragment_graph = partition.fragment_graph(fragment)
                assert len(live_snapshots(fragment_graph)) == 1

    def test_every_fleet_shard_keeps_only_its_current_snapshot(self, social):
        graph, patterns = social
        graph = graph.copy()
        with ShardedService(graph, num_shards=2, d=2) as fleet:
            fleet.evaluate_many(patterns)
            for step in range(DELTAS):
                fleet.apply_delta(toggle_edge(graph, step))
                fleet.cache.clear()
                for service in fleet.services:
                    service.cache.clear()
                fleet.evaluate(patterns[step % len(patterns)])
            for service in fleet.services:
                assert live_snapshots(service.graph) == [
                    GraphIndex.for_graph(service.graph)
                ], service.name


def strategies(pipeline, kind):
    return [
        (event.data["pattern"], event.data["strategy"])
        for event in pipeline.flight.events(kind)
    ]


class TestStrategyRecords:
    def test_query_service_records_what_ran(self):
        graph = benchmark_graph("pokec", scale=0.2, seed=41)
        q1, q2 = paper_pattern("Q1"), paper_pattern("Q2")
        with QueryService(graph, slow_query_threshold=0.0) as service:
            service.evaluate(q2)
            service.evaluate(q1)
            service.evaluate(q2)  # a cache hit
            assert strategies(service, "slow_query") == [
                ("Q2", "fixpoint"),
                ("Q1", "cutset"),
                ("Q2", ""),
            ]
            # The flight ring records computed requests only.
            assert strategies(service, "query") == [
                ("Q2", "fixpoint"),
                ("Q1", "cutset"),
            ]
            assert [record["strategy"] for record in service.introspect()["slow_queries"]] == [
                "fixpoint",
                "cutset",
                "",
            ]

    def test_fleet_records_the_merged_strategy(self):
        graph = benchmark_graph("pokec", scale=0.2, seed=41)
        q1, q2 = paper_pattern("Q1"), paper_pattern("Q2")
        with ShardedService(graph, num_shards=2, d=2, slow_query_threshold=0.0) as fleet:
            fleet.evaluate_many([q2, q1])
            assert strategies(fleet, "slow_query") == [
                ("Q2", "fixpoint"),
                ("Q1", "cutset"),
            ]

    @pytest.mark.parametrize("use_incremental", [True, False])
    @pytest.mark.parametrize("p", [2, 4])
    def test_label_follows_explains_rule(self, p, use_incremental):
        # Q3 answers Π(Q) from the fixpoint and searches its Q⁺ᵉ, whose two
        # person nodes are not adjacent, so both readings say search
        # (shared_label), whether the Q⁺ᵉ pass is
        # incremental (QMatch) or from scratch (QMatchN).  At p = 4 the
        # candidate filter empties a pool: nothing ran, and the label says so.
        engine = QMatch(use_incremental=use_incremental)
        graph, pattern = build_paper_g1(), build_q3(p=p)
        label = strategy_label(engine.evaluate(pattern, graph).counter)
        strategy, reason = query_strategy(pattern, graph)
        assert (strategy, reason) == ("search", "shared_label")
        assert label == ("search (shared_label)" if p == 2 else "")
        assert strategy_label(engine.evaluate(build_q2(), graph).counter) == "fixpoint"
        assert strategy_label(None) == ""

    def test_subscription_maintenance_records_no_strategy(self):
        graph = build_paper_g1()
        with QueryService(graph, slow_query_threshold=0.0) as service:
            service.subscribe(build_q2())
            service.apply_delta(GraphDelta.build(edge_inserts=[("x1", "v1", "follow")]))
            records = service.introspect()["slow_queries"]
        assert [(record["cache_route"], record["strategy"]) for record in records] == [
            ("compute", "fixpoint"),
            ("", ""),
        ]


class TestServingCompilesNothing:
    def test_fleet_compiles_only_for_explain(self):
        graph = benchmark_graph("pokec", scale=0.2, seed=41)
        q1, q2 = paper_pattern("Q1"), paper_pattern("Q2")
        before = plan_compile_count()
        with ShardedService(graph, num_shards=2, d=2) as fleet:
            fleet.evaluate_many([q1, q2])
            fleet.cache.clear()
            fleet.evaluate_many([q1, q2])
            assert plan_compile_count() == before
            for _ in range(2):
                report = fleet.explain(q1)
            assert plan_compile_count() == before + 2
            assert report.strategy == "cutset" and report.reason is None
            assert not hasattr(fleet, "plans")
