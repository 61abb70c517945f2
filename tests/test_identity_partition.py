"""The one-fragment identity partition and the serving defaults built on it.

``PQMatch(num_workers=1)`` evaluates on the graph itself — no DPar, no
fragment copy, no second compiled index, no focus restriction — and is what a
default ``QueryService`` and every default fleet shard run a miss on.  These
tests pin what that must get right: it *is* the sequential engine (answers and
work counters), nothing is built behind its back, deltas neither double-apply
nor leave a stale notion of "every node", and the degenerate one-process pool
stays inside the **Pool** invariant.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.delta import GraphDelta
from repro.graph import PropertyGraph
from repro.index.snapshot import build_call_count
from repro.matching import EnumMatcher, QMatch
from repro.obs.trace import active_tracing
from repro.parallel import DPar, IdentityPartition, PQMatch
from repro.patterns import PatternBuilder
from repro.serve import ShardedService
from repro.service import QueryService

from test_property_based import labeled_graphs, quantified_patterns

HYPOTHESIS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def social(num_nodes: int = 48, num_edges: int = 170, seed: int = 5) -> PropertyGraph:
    rng = random.Random(seed)
    graph = PropertyGraph(f"social-{seed}")
    for node in range(num_nodes):
        graph.add_node(node, "person" if rng.random() < 0.75 else "product")
    while graph.num_edges < num_edges:
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if source != target:
            label = "recom" if graph.node_label(target) == "product" else "follow"
            graph.add_edge(source, target, label)
    return graph


def popular():
    return (
        PatternBuilder("popular")
        .focus("x", "person")
        .node("y", "person")
        .edge("x", "y", "follow", at_least=2)
        .build()
    )


def picky():
    return (
        PatternBuilder("picky")
        .focus("x", "person")
        .node("y", "person")
        .node("p", "product")
        .node("z", "person")
        .edge("x", "y", "follow")
        .edge("y", "p", "recom")
        .edge("x", "z", "follow", negated=True)
        .edge("z", "p", "recom")
        .build()
    )


def newcomer():
    """Matches only nodes labelled ``robot`` — none exist until a delta adds one."""
    return (
        PatternBuilder("newcomer")
        .focus("x", "robot")
        .node("y", "person")
        .edge("x", "y", "follow")
        .build()
    )


def oracle(pattern, graph) -> frozenset:
    return frozenset(EnumMatcher().evaluate_answer(pattern, graph.copy()))


def churn(graph: PropertyGraph, rng: random.Random, step: int) -> GraphDelta:
    """One batch: a new robot following two people, plus two edge deletes."""
    people = sorted(graph.nodes_with_label("person"), key=str)
    robot = f"robot-{step}"
    edges = sorted(graph.edges(), key=str)
    return GraphDelta.build(
        node_inserts=[(robot, "robot")],
        edge_inserts=[(robot, person, "follow") for person in rng.sample(people, 2)],
        edge_deletes=rng.sample(edges, 2),
    )


# ------------------------------------------------- (i) it is the wrapped engine


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**HYPOTHESIS)
def test_one_worker_is_the_sequential_engine(graph, pattern):
    sequential = QMatch().evaluate(pattern, graph)
    single = PQMatch(num_workers=1).evaluate(pattern, graph)
    assert single.answer == sequential.answer
    assert single.counter.as_dict() == sequential.counter.as_dict()
    assert single.work_skew == 1.0
    partitioned = PQMatch(num_workers=3, d=max(pattern.radius(), 1), seed=0)
    assert partitioned.evaluate_answer(pattern, graph) == single.answer


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**HYPOTHESIS)
def test_intra_fragment_threads_chunk_the_whole_graph(graph, pattern):
    threaded = PQMatch(num_workers=1, threads=2).evaluate_answer(pattern, graph)
    assert threaded == QMatch().evaluate_answer(pattern, graph)


class TestIdentityPartition:
    def test_nothing_is_copied_built_or_restricted(self, small_pokec, dataset_q1, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("num_workers=1 must not copy or partition the graph")

        monkeypatch.setattr(PropertyGraph, "induced_subgraph", refuse)
        monkeypatch.setattr(DPar, "partition", refuse)
        monkeypatch.setattr(DPar, "extend", refuse)
        engine = PQMatch(num_workers=1, d=0)
        partition = engine.ensure_radius(small_pokec, 5)
        (task,) = engine.fragment_tasks(dataset_q1, partition)
        assert task.fragment_graph is small_pokec
        assert task.owned_nodes is None
        assert engine.evaluate_answer(dataset_q1, small_pokec) == (
            QMatch().evaluate_answer(dataset_q1, small_pokec)
        )

    def test_quality_accessors_stay_truthful(self, small_pokec):
        partition = PQMatch(num_workers=1).partition(small_pokec)
        assert isinstance(partition, IdentityPartition)
        assert partition.num_fragments == 1
        assert partition.d == sys.maxsize
        assert partition.replication_factor() == 1.0
        assert partition.skew() == 1.0
        assert partition.is_complete() and partition.is_covering()
        some_node = next(iter(small_pokec.nodes()))
        assert partition.owner_of(some_node) == 0
        assert partition.owner_of("no-such-node") is None
        stats = partition.statistics()
        assert stats["fragments"] == 1.0 and stats["replication"] == 1.0
        assert stats["largest"] == stats["smallest"] == small_pokec.num_nodes

    def test_apply_delta_never_touches_the_already_mutated_graph(self):
        from repro.delta import apply_delta

        graph = social()
        engine = PQMatch(num_workers=1)
        engine.evaluate(popular(), graph)
        delta = churn(graph, random.Random(1), 0)
        inverse = apply_delta(graph, delta)
        after = graph.copy()
        assert engine.apply_delta(graph, delta, inverse) == []
        assert graph == after
        assert engine.evaluate_answer(newcomer(), graph) == {"robot-0"}

    def test_only_the_dpar_build_is_a_span(self, small_pokec):
        with active_tracing() as tracer:
            PQMatch(num_workers=1).partition(small_pokec)
            assert [r.name for r in tracer.records()] == []
            PQMatch(num_workers=3).partition(small_pokec)
            (record,) = tracer.records()
        assert record.name == "parallel.partition"
        assert record.tag("fragments") == "3"
        assert float(record.tag("replication")) >= 1.0


# -------------------------------------------- (ii) what a default service builds


class TestDefaultsBuildOneIndex:
    @pytest.fixture(autouse=True)
    def no_dpar(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a default serving tier must not run DPar")

        monkeypatch.setattr(DPar, "partition", refuse)

    def test_query_service(self):
        graph = social()
        with QueryService(graph) as service:
            assert service.introspect()["pool"]["fragments"] == 0
            builds = build_call_count()
            assert not service.evaluate(popular()).cached
            assert build_call_count() - builds == 1
            service.evaluate(picky())
            assert build_call_count() - builds == 1
            assert service.introspect()["pool"]["fragments"] == 1

    def test_every_fleet_shard(self):
        graph = social(num_nodes=80, num_edges=300)
        with ShardedService(graph, num_shards=4) as fleet:
            builds = build_call_count()
            assert not fleet.evaluate(popular()).cached
            assert build_call_count() - builds == 4
            fleet.evaluate(picky())
            assert build_call_count() - builds == 4
            assert [
                service.introspect()["pool"]["fragments"] for service in fleet.services
            ] == [1, 1, 1, 1]


def test_an_explicit_coordinator_reports_its_dpar_fragments():
    with QueryService(social(), PQMatch(num_workers=3, d=2)) as service:
        assert service.introspect()["pool"]["fragments"] == 0
        service.evaluate(popular())
        assert service.introspect()["pool"]["fragments"] == 3


# ------------------------------------------------- (iii) defaults under deltas


def make_service(graph):
    return QueryService(graph)


def make_fleet(graph):
    return ShardedService(graph, num_shards=3, d=2)


@pytest.mark.parametrize("make_tier", [make_service, make_fleet])
def test_default_tiers_equal_cold_evaluation_across_a_delta_stream(make_tier):
    graph = social()
    rng = random.Random(23)
    patterns = [popular(), picky(), newcomer()]
    with make_tier(graph) as tier:
        def check():
            for pattern in patterns:
                expected = oracle(pattern, graph)
                # Once fresh-or-cached, once certainly cached: both are cold truth.
                assert tier.evaluate(pattern).answer == expected
                assert tier.evaluate(pattern).answer == expected

        check()
        robots = set()
        for step in range(6):
            inverse = tier.apply_delta(churn(graph, rng, step))
            robots.add(f"robot-{step}")
            check()
            # The just-inserted node is this pattern's newest match: an
            # ownership set copied before the insert could not contain it.
            assert tier.evaluate(newcomer()).answer == robots
            if step % 2:
                tier.apply_delta(inverse)
                robots.discard(f"robot-{step}")
                check()
                assert tier.evaluate(newcomer()).answer == robots


# -------------------------------------- (iv) the degenerate one-process pool


def test_one_process_pool_reships_after_a_structural_delta():
    from repro.delta import apply_delta

    graph = social()
    patterns = [popular(), picky(), newcomer()]
    with PQMatch(num_workers=1, executor="process") as engine:
        for pattern in patterns:
            pooled = engine.evaluate(pattern, graph)
            sequential = QMatch().evaluate(pattern, graph)
            assert pooled.answer == sequential.answer
            assert pooled.counter.as_dict() == sequential.counter.as_dict()
        epoch = engine.executor.pool_epoch
        assert len(epoch) == 1

        delta = churn(graph, random.Random(4), 0)
        inverse = apply_delta(graph, delta)
        assert engine.apply_delta(graph, delta, inverse) == []
        for pattern in patterns:
            assert engine.evaluate_answer(pattern, graph) == (
                QMatch().evaluate_answer(pattern, graph)
            )
        assert engine.evaluate_answer(newcomer(), graph) == {"robot-0"}
        # Re-shipped (a fresh payload epoch), never replayed or rebuilt.
        assert engine.executor.pool_epoch != epoch
        assert engine.executor.deltas_shipped == 0
        assert engine.executor.last_worker_rebuilds == 0
