"""Tests for cross-process fragment shipping: payloads, specs, persistent pools.

The contract under test (PR 3's tentpole): a fragment crosses the process
boundary exactly once, as the flat-buffer snapshot bytes of
:mod:`repro.index.serialize`, and pool workers *decode* — never recompile —
the compiled :class:`GraphIndex`.  The ``GraphIndex.build`` call counter is
read on both sides of the boundary to pin that down.
"""

from __future__ import annotations

import pickle

import pytest

from repro.datasets import benchmark_graph, paper_pattern
from repro.index.snapshot import build_call_count
from repro.matching import DMatchOptions, QMatch
from repro.parallel import (
    DPar,
    FragmentPayload,
    FragmentTask,
    PQMatch,
    ProcessExecutor,
    SerialExecutor,
    engine_from_spec,
    engine_to_spec,
    pqmatch_s_engine,
)


@pytest.fixture(scope="module")
def shipping_graph():
    """A private graph (not the shared session fixture), so build-counter
    assertions are not perturbed by other tests' cached indexes."""
    return benchmark_graph("pokec", scale=0.4, seed=17)


@pytest.fixture(scope="module")
def shipping_patterns():
    return [paper_pattern("Q1"), paper_pattern("Q3", p=2)]


class TestEngineSpec:
    def test_qmatch_round_trip(self):
        engine = QMatch(
            use_incremental=False,
            options=DMatchOptions(use_simulation=False, early_exit=False),
            name="custom",
        )
        spec = engine_to_spec(engine)
        assert spec[0] == "qmatch"
        rebuilt = engine_from_spec(spec)
        assert type(rebuilt) is QMatch
        assert rebuilt.use_incremental == engine.use_incremental
        assert rebuilt.options == engine.options
        assert rebuilt.name == engine.name

    def test_opaque_fallback(self):
        sentinel = object.__new__(SerialExecutor)  # any non-QMatch object
        kind, payload = engine_to_spec(sentinel)
        assert kind == "opaque"
        assert engine_from_spec((kind, payload)) is sentinel

    def test_fragment_task_pickles_spec_not_engine(self, paper_g1, pattern_q2):
        task = FragmentTask(3, paper_g1, {"x1"}, pattern_q2, QMatch(name="tagged"))
        state = task.__getstate__()
        assert "engine" not in state
        assert state["engine_spec"][0] == "qmatch"
        clone = pickle.loads(pickle.dumps(task))
        assert type(clone.engine) is QMatch
        assert clone.engine.name == "tagged"
        assert clone.run().answer == task.run().answer


class TestFragmentPayload:
    def _partition(self, graph, n=2, d=2):
        return DPar(d=d, seed=0).partition(graph, n)

    def test_materialise_restores_graph_attrs_and_index(self, shipping_graph):
        partition = self._partition(shipping_graph)
        fragment = next(f for f in partition.fragments if f.owned_nodes)
        fragment_graph = partition.fragment_graph(fragment)
        payload = FragmentPayload.from_fragment(
            fragment.fragment_id, fragment_graph, fragment.owned_nodes
        )
        builds_before = build_call_count()
        rebuilt = payload.materialise()
        assert build_call_count() == builds_before  # decoded, not recompiled
        assert rebuilt == fragment_graph  # nodes, labels, attrs and edges
        assert rebuilt.cached_index() is not None

    def test_payload_run_matches_in_process_task(self, shipping_graph, shipping_patterns):
        partition = self._partition(shipping_graph)
        pattern = shipping_patterns[0]
        for fragment in partition.fragments:
            if not fragment.owned_nodes:
                continue
            fragment_graph = partition.fragment_graph(fragment)
            payload = FragmentPayload.from_fragment(
                fragment.fragment_id, fragment_graph, fragment.owned_nodes
            )
            task = FragmentTask(
                fragment.fragment_id, fragment_graph, set(fragment.owned_nodes),
                pattern, QMatch(),
            )
            assert payload.run(pattern, QMatch()).answer == task.run().answer

    def test_cache_key_tracks_content(self, shipping_graph):
        partition = self._partition(shipping_graph)
        fragment = next(f for f in partition.fragments if f.owned_nodes)
        fragment_graph = partition.fragment_graph(fragment)
        first = FragmentPayload.from_fragment(
            fragment.fragment_id, fragment_graph, fragment.owned_nodes
        )
        again = FragmentPayload.from_fragment(
            fragment.fragment_id, fragment_graph, fragment.owned_nodes
        )
        assert first.cache_key == again.cache_key
        mutated = fragment_graph.copy()
        mutated.add_node("brand-new", "person")
        other = FragmentPayload.from_fragment(
            fragment.fragment_id, mutated, fragment.owned_nodes
        )
        assert other.cache_key != first.cache_key


class TestProcessExecutor:
    def _tasks(self, graph, pattern, partition):
        return [
            FragmentTask(
                fragment.fragment_id,
                partition.fragment_graph(fragment),
                set(fragment.owned_nodes),
                pattern,
                QMatch(),
            )
            for fragment in partition.fragments
            if fragment.owned_nodes
        ]

    def test_matches_serial_and_caches_pool(self, shipping_graph, shipping_patterns):
        partition = DPar(d=2, seed=0).partition(shipping_graph, 2)
        tasks = self._tasks(shipping_graph, shipping_patterns[0], partition)
        serial_results = SerialExecutor().run(tasks)
        with ProcessExecutor(max_workers=2) as executor:
            first = executor.run(tasks)
            pool = executor._pool
            assert pool is not None
            second = executor.run(tasks)
            # Same payload epoch: the pool and payload cache are reused.
            assert executor._pool is pool
            assert executor.last_worker_rebuilds == 0
        assert [r.answer for r in first] == [r.answer for r in serial_results]
        assert [r.answer for r in second] == [r.answer for r in serial_results]

    def test_epoch_change_recreates_pool(self, shipping_graph, shipping_patterns):
        pattern = shipping_patterns[0]
        partition_a = DPar(d=2, seed=0).partition(shipping_graph, 2)
        partition_b = DPar(d=2, seed=1).partition(shipping_graph, 3)
        with ProcessExecutor(max_workers=2) as executor:
            executor.run(self._tasks(shipping_graph, pattern, partition_a))
            pool = executor._pool
            executor.run(self._tasks(shipping_graph, pattern, partition_b))
            assert executor._pool is not pool
            assert executor.last_worker_rebuilds == 0


class TestNoWorkerRecompile:
    def test_workers_never_build_for_a_cached_partition(
        self, shipping_graph, shipping_patterns
    ):
        """The regression the snapshot layer exists for: for one partition,
        ``GraphIndex.build`` runs on the coordinator only (once for the source
        graph, once per fragment payload) and *zero* times inside the pool —
        and once the partition is cached, re-evaluating patterns builds
        nothing anywhere."""
        # A graph private to this test: the shared module fixture may already
        # carry a cached source index, which would skew the build accounting.
        graph = benchmark_graph("pokec", scale=0.4, seed=23)
        engine = pqmatch_s_engine(num_workers=2, d=2, executor="process")
        try:
            builds_before = build_call_count()
            first = [engine.evaluate_answer(q, graph) for q in shipping_patterns]
            coordinator_builds = build_call_count() - builds_before
            fragments = [f for f in engine._partition.fragments if f.owned_nodes]
            # One build for the source graph (the partitioner's CSR BFS) plus
            # one per shipped fragment payload — all on the coordinator.
            assert coordinator_builds == 1 + len(fragments)
            assert engine.executor.last_worker_rebuilds == 0

            builds_before = build_call_count()
            second = [engine.evaluate_answer(q, graph) for q in shipping_patterns]
            assert build_call_count() == builds_before  # fully cached rerun
            assert engine.executor.last_worker_rebuilds == 0
            assert second == first
        finally:
            engine.close()

    def test_pqmatch_process_equals_serial(self, shipping_graph, shipping_patterns):
        serial = pqmatch_s_engine(num_workers=3, d=2)
        with pqmatch_s_engine(num_workers=3, d=2, executor="process") as process:
            for pattern in shipping_patterns:
                assert process.evaluate_answer(pattern, shipping_graph) == (
                    serial.evaluate_answer(pattern, shipping_graph)
                )
            assert process.executor.last_worker_rebuilds == 0

    def test_mutation_invalidates_partition_and_reships(self, shipping_patterns):
        """An in-place structural mutation must re-partition (the cached
        fragments describe the old structure) and, via the fresh payload
        checksums, recreate the worker pool — never answer from stale
        fragments."""
        graph = benchmark_graph("pokec", scale=0.4, seed=29)
        pattern = shipping_patterns[0]
        with pqmatch_s_engine(num_workers=2, d=2, executor="process") as engine:
            engine.evaluate_answer(pattern, graph)
            partition_before = engine._partition
            pool_before = engine.executor._pool
            source = next(iter(engine._partition.fragments[0].owned_nodes))
            graph.add_node("mutation-probe", graph.node_label(source))
            answer = engine.evaluate_answer(pattern, graph)
            assert engine._partition is not partition_before
            assert engine.executor._pool is not pool_before
            assert engine.executor.last_worker_rebuilds == 0
            assert answer == QMatch().evaluate_answer(pattern, graph)

    def test_coordinator_close_releases_executor(self, shipping_graph, shipping_patterns):
        engine = PQMatch(num_workers=2, d=2, executor="process", seed=0)
        engine.evaluate(shipping_patterns[0], shipping_graph)
        assert engine._executor is not None
        engine.close()
        assert engine._executor is None
