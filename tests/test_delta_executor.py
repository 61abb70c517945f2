"""Process-pool delta shipping: mutations must not re-ship or recompile.

The persistent pool's contract across an applied graph batch: the pool object
survives, tasks carry the sub-delta as a chain for workers to replay on their
cached fragments, and ``last_worker_rebuilds`` stays zero — the delta
travels, the fragment does not.
"""

from __future__ import annotations

import pytest

from repro.delta import GraphDelta, apply_delta
from repro.graph import small_world_social_graph
from repro.matching import QMatch
from repro.parallel import PQMatch

from fixtures import build_q3


@pytest.fixture
def churn_setup():
    graph = small_world_social_graph(60, 180, seed=11)
    coordinator = PQMatch(num_workers=2, d=2, executor="process")
    yield graph, coordinator
    coordinator.close()


def insert_only_delta(graph, seed=0):
    nodes = sorted(graph.nodes(), key=str)
    label = sorted({l for _, _, l in graph.edges()})[0]
    inserts = []
    for offset in range(seed, seed + 9, 3):
        source = nodes[offset % len(nodes)]
        target = nodes[(offset * 5 + 7) % len(nodes)]
        edge = (source, target, label)
        if source != target and not graph.has_edge(*edge) and edge not in inserts:
            inserts.append(edge)
    return GraphDelta.build(edge_inserts=inserts)


def test_delta_keeps_pool_alive_and_workers_rebuild_free(churn_setup):
    graph, coordinator = churn_setup
    pattern = build_q3(p=2)
    before = coordinator.evaluate_answer(pattern, graph)
    assert before == QMatch().evaluate_answer(pattern, graph)
    executor = coordinator.executor
    pool = executor._pool
    assert pool is not None
    assert executor.pool_recreations == 1

    delta = insert_only_delta(graph)
    inverse = apply_delta(graph, delta)
    updates = coordinator.apply_delta(graph, delta, inverse)
    assert updates, "churn inside fragments must produce updates"
    assert executor.deltas_shipped > 0

    after = coordinator.evaluate_answer(pattern, graph)
    assert after == QMatch().evaluate_answer(pattern, graph)
    assert executor._pool is pool, "the mutation recreated the pool"
    assert executor.pool_recreations == 1
    assert executor.last_worker_rebuilds == 0


def test_chained_deltas_replay_in_order(churn_setup):
    graph, coordinator = churn_setup
    pattern = build_q3(p=2)
    coordinator.evaluate_answer(pattern, graph)
    executor = coordinator.executor
    pool = executor._pool

    # Two mutations land before the next query: the worker replays both hops.
    for seed in (1, 23):
        delta = insert_only_delta(graph, seed=seed)
        inverse = apply_delta(graph, delta)
        coordinator.apply_delta(graph, delta, inverse)

    answer = coordinator.evaluate_answer(pattern, graph)
    assert answer == QMatch().evaluate_answer(pattern, graph)
    assert executor._pool is pool
    assert executor.pool_recreations == 1
    assert executor.last_worker_rebuilds == 0


def test_query_between_each_delta(churn_setup):
    graph, coordinator = churn_setup
    pattern = build_q3(p=2)
    coordinator.evaluate_answer(pattern, graph)
    executor = coordinator.executor
    pool = executor._pool
    for seed in (2, 31, 47):
        delta = insert_only_delta(graph, seed=seed)
        inverse = apply_delta(graph, delta)
        coordinator.apply_delta(graph, delta, inverse)
        assert coordinator.evaluate_answer(pattern, graph) == QMatch().evaluate_answer(
            pattern, graph
        )
    assert executor._pool is pool
    assert executor.pool_recreations == 1
    assert executor.last_worker_rebuilds == 0


def test_node_delete_falls_back_to_reship_without_worker_rebuilds(churn_setup):
    """A node-deleting batch cannot be replayed as an index refresh
    (``refresh_ok=False``), so the executor forgets the payload and the next
    run re-ships the fragment fresh — correct answers, still zero worker
    recompiles (the worker decodes the new snapshot, it never builds)."""
    graph, coordinator = churn_setup
    pattern = build_q3(p=2)
    coordinator.evaluate_answer(pattern, graph)
    executor = coordinator.executor
    recreations = executor.pool_recreations

    victim = sorted(graph.nodes(), key=str)[0]
    delta = GraphDelta.build(node_deletes=[victim])
    inverse = apply_delta(graph, delta)
    coordinator.apply_delta(graph, delta, inverse)

    answer = coordinator.evaluate_answer(pattern, graph)
    assert answer == QMatch().evaluate_answer(pattern, graph)
    # The re-shipped fragment is a new payload epoch: exactly one new pool.
    assert executor.pool_recreations == recreations + 1
    assert executor.last_worker_rebuilds == 0


def test_threaded_backend_apply_delta_is_transparent():
    graph = small_world_social_graph(60, 180, seed=11)
    pattern = build_q3(p=2)
    with PQMatch(num_workers=4, d=2, executor="thread") as coordinator:
        coordinator.evaluate_answer(pattern, graph)
        delta = insert_only_delta(graph)
        inverse = apply_delta(graph, delta)
        coordinator.apply_delta(graph, delta, inverse)
        assert coordinator.evaluate_answer(pattern, graph) == QMatch().evaluate_answer(
            pattern, graph
        )
