"""Tests for the synthetic datasets, the paper patterns/rules and the bench harness."""

from __future__ import annotations

import pytest

from repro.bench import EngineSpec, records_to_table, run_engines, summarize_records
from repro.datasets import (
    DATASET_NAMES,
    PokecConfig,
    YagoConfig,
    benchmark_graph,
    paper_pattern,
    paper_rule,
    pokec_like_graph,
    workload_patterns,
    yago_like_graph,
    zipf_workload,
)
from repro.matching import EnumMatcher, QMatch
from repro.utils import ReproError


class TestPokecLike:
    def test_vocabulary(self, small_pokec):
        labels = small_pokec.node_labels()
        assert {"person", "album", "product", "music_club", "Redmi_2A"} <= labels
        edge_labels = {label for _, _, label in small_pokec.edges()}
        assert {"follow", "like", "recom", "buy", "in"} <= edge_labels

    def test_determinism(self):
        config = PokecConfig(num_users=80, seed=3)
        assert pokec_like_graph(config) == pokec_like_graph(config)

    def test_planted_q1_cohort_matches(self, small_pokec):
        answer = QMatch().evaluate_answer(paper_pattern("Q1"), small_pokec)
        assert answer, "the planted 80%-likers cohort should produce Q1 matches"

    def test_planted_q2_cohort_matches(self, small_pokec):
        answer = QMatch().evaluate_answer(paper_pattern("Q2"), small_pokec)
        assert answer

    def test_planted_q3_cohort_and_negation(self, small_pokec):
        q3 = paper_pattern("Q3", p=2)
        result = QMatch().evaluate(q3, small_pokec)
        assert result.positive_answer, "the >= p branch should have matches"
        assert result.answer < result.positive_answer, (
            "the planted detractor followers should be removed by the negated edge"
        )

    def test_scaling_changes_size_not_vocabulary(self):
        small = benchmark_graph("pokec", scale=0.3, seed=2)
        larger = benchmark_graph("pokec", scale=0.6, seed=2)
        assert larger.num_nodes > small.num_nodes
        assert small.node_labels() == larger.node_labels()


class TestYagoLike:
    def test_vocabulary(self, small_yago):
        labels = small_yago.node_labels()
        assert {"person", "prof", "PhD", "UK", "USA", "prize", "university"} <= labels
        edge_labels = {label for _, _, label in small_yago.edges()}
        assert {"is_a", "advised", "in", "won", "citizen_of", "graduated"} <= edge_labels

    def test_determinism(self):
        config = YagoConfig(num_persons=100, seed=9)
        assert yago_like_graph(config) == yago_like_graph(config)

    def test_determinism_across_hash_seeds(self):
        """The graph must not depend on set iteration order (PYTHONHASHSEED)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.datasets import benchmark_graph\n"
            "graph = benchmark_graph('yago2', scale=0.4, seed=5)\n"
            "print(sorted(map(repr, graph.edges())))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        edge_lists = []
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            edge_lists.append(completed.stdout)
        assert edge_lists[0] == edge_lists[1]

    def test_planted_q4_cohort_matches(self, small_yago):
        answer = QMatch().evaluate_answer(paper_pattern("Q4", p=2), small_yago)
        assert answer, "the planted UK professors without a PhD should match Q4"

    def test_planted_q5_cohort_matches(self, small_yago):
        answer = QMatch().evaluate_answer(paper_pattern("Q5"), small_yago)
        assert answer

    def test_planted_r7_cohort_matches(self, small_yago):
        evaluation = paper_rule("R7").evaluate(small_yago)
        assert evaluation.support > 0
        assert evaluation.confidence > 0.5


class TestZipfWorkload:
    def _patterns(self, count=8):
        return [paper_pattern("Q1", ratio=10.0 * (rank + 1)) for rank in range(count)]

    def test_deterministic_and_complete(self):
        patterns = self._patterns()
        one = zipf_workload(patterns, 40, seed=3)
        two = zipf_workload(patterns, 40, seed=3)
        assert [p.name for p in one] == [p.name for p in two]
        assert len(one) == 40
        # length >= uniques: the round-robin seeding guarantees full coverage
        assert {id(p) for p in one} == {id(p) for p in patterns}

    def test_skew_favours_top_ranks(self):
        patterns = self._patterns()
        stream = zipf_workload(patterns, 400, exponent=1.5, seed=9)
        counts = [sum(1 for p in stream if p is pattern) for pattern in patterns]
        assert counts[0] > counts[-1]
        assert counts[0] >= max(counts[1:])

    def test_short_stream_still_honours_the_exponent(self):
        """length < uniques must draw by weight, not return a uniform prefix."""
        patterns = self._patterns()
        stream = zipf_workload(patterns, 4, exponent=50.0, seed=11)
        assert len(stream) == 4
        # With an extreme exponent the head rank dominates completely.
        assert all(p is patterns[0] for p in stream)

    def test_validation(self):
        patterns = self._patterns(2)
        with pytest.raises(ReproError):
            zipf_workload([], 5)
        with pytest.raises(ReproError):
            zipf_workload(patterns, -1)
        with pytest.raises(ReproError):
            zipf_workload(patterns, 5, exponent=0.0)
        assert zipf_workload(patterns, 0) == []


class TestBenchmarkGraphFactory:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_datasets_build(self, name):
        graph = benchmark_graph(name, scale=0.2, seed=1)
        assert graph.num_nodes > 0
        assert graph.num_edges > 0

    def test_unknown_dataset(self):
        with pytest.raises(ReproError):
            benchmark_graph("twitter")

    def test_invalid_scale(self):
        with pytest.raises(ReproError):
            benchmark_graph("pokec", scale=0.0)

    def test_unknown_pattern_and_rule(self):
        with pytest.raises(ReproError):
            paper_pattern("Q9")
        with pytest.raises(ReproError):
            paper_rule("R9")

    def test_paper_patterns_validate(self):
        for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            paper_pattern(name).validate()

    def test_workload_patterns_are_valid_and_deterministic(self, small_pokec):
        first = workload_patterns(small_pokec, count=3, seed=7)
        second = workload_patterns(small_pokec, count=3, seed=7)
        assert first == second
        for pattern in first:
            pattern.validate()
            assert pattern.size_signature()[3] == 1


class TestBenchHarness:
    def test_run_engines_produces_records(self, small_pokec, dataset_q1):
        engines = [
            EngineSpec("QMatch", lambda: QMatch()),
            EngineSpec("Enum", lambda: EnumMatcher()),
        ]
        records = run_engines(engines, [dataset_q1], small_pokec)
        assert len(records) == 2
        answers = {record.answer_size for record in records}
        assert len(answers) == 1, "all engines must report the same answer size"

    def test_summary_and_table(self, small_pokec, dataset_q1):
        engines = [EngineSpec("QMatch", lambda: QMatch())]
        records = run_engines(engines, [dataset_q1], small_pokec)
        summary = summarize_records(records)
        assert summary["QMatch"]["queries"] == 1
        table = records_to_table(records, title="demo")
        assert "QMatch" in table and "demo" in table

    def test_parallel_engine_extras(self, small_pokec, dataset_q1):
        from repro.parallel import pqmatch_engine

        engines = [EngineSpec("PQMatch", lambda: pqmatch_engine(num_workers=2))]
        records = run_engines(engines, [dataset_q1], small_pokec)
        assert "work_speedup" in records[0].extras


class TestUpdateWorkload:
    def _graph(self):
        from repro.graph import small_world_social_graph

        return small_world_social_graph(50, 120, seed=3)

    def _patterns(self, graph):
        return workload_patterns(graph, count=3, seed=5)

    def test_deterministic_and_replayable(self):
        from repro.datasets import update_workload
        from repro.delta import apply_delta

        graph = self._graph()
        patterns = self._patterns(graph)
        first = update_workload(graph, patterns, 40, update_fraction=0.4, seed=9)
        second = update_workload(graph, patterns, 40, update_fraction=0.4, seed=9)
        assert [op.kind for op in first] == [op.kind for op in second]
        assert [op.delta for op in first if op.is_update] == [
            op.delta for op in second if op.is_update
        ]
        # Every delta must apply cleanly when the stream is replayed in order
        # (the generator simulated the stream against a scratch copy).
        replay = graph.copy()
        for op in first:
            if op.is_update:
                apply_delta(replay, op.delta)

    def test_source_graph_is_never_mutated(self):
        from repro.datasets import update_workload

        graph = self._graph()
        reference = self._graph()
        update_workload(graph, self._patterns(graph), 40, update_fraction=0.5, seed=2)
        assert graph == reference and graph.version == reference.version

    def test_mix_and_op_kinds(self):
        from repro.datasets import update_workload

        graph = self._graph()
        stream = update_workload(
            graph, self._patterns(graph), 200, update_fraction=0.3, seed=7
        )
        updates = [op for op in stream if op.is_update]
        queries = [op for op in stream if not op.is_update]
        assert updates and queries
        assert 0.15 < len(updates) / len(stream) < 0.45
        assert all(op.delta is not None and op.pattern is None for op in updates)
        assert all(op.pattern is not None and op.delta is None for op in queries)
        assert any(op.delta.edge_inserts for op in updates)
        assert any(op.delta.edge_deletes for op in updates)

    def test_batches_never_insert_and_delete_the_same_edge(self):
        """Regression: within one multi-op batch, a delete draw could pick an
        edge inserted earlier in the same batch (and vice versa), producing a
        delta that GraphDelta validation rejects on replay."""
        from repro.datasets import update_workload
        from repro.delta import apply_delta
        from repro.graph import small_world_social_graph

        graph = small_world_social_graph(30, 70, seed=0)
        patterns = workload_patterns(graph, count=2, seed=1)
        replay = graph.copy()
        for seed in range(6):
            stream = update_workload(
                graph, patterns, 60, update_fraction=0.6, ops_per_update=4, seed=seed
            )
            for op in stream:
                if op.is_update:
                    assert not set(op.delta.edge_inserts) & set(op.delta.edge_deletes)
            scratch = replay.copy()
            for op in stream:
                if op.is_update:
                    apply_delta(scratch, op.delta)  # must never raise

    def test_stream_always_has_exactly_length_elements(self):
        """Regression: a batch whose every op fails to draw (near-complete
        graph) used to be dropped, shortening the stream below `length`."""
        from repro.datasets import update_workload
        from repro.graph import PropertyGraph

        graph = PropertyGraph("dense")
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_edge("a", "b", "follow")
        graph.add_edge("b", "a", "follow")  # every non-loop edge present
        patterns = self._patterns(self._graph())
        for seed in range(5):
            stream = update_workload(
                graph, patterns, 50, update_fraction=0.8, ops_per_update=2, seed=seed
            )
            assert len(stream) == 50

    def test_zipf_skew_favours_early_patterns(self):
        from repro.datasets import update_workload

        graph = self._graph()
        patterns = self._patterns(graph)
        stream = update_workload(
            graph, patterns, 300, update_fraction=0.0, exponent=1.5, seed=4
        )
        counts = [0] * len(patterns)
        for op in stream:
            counts[patterns.index(op.pattern)] += 1
        assert counts[0] > counts[-1]

    def test_validation(self):
        from repro.datasets import update_workload

        graph = self._graph()
        patterns = self._patterns(graph)
        with pytest.raises(ReproError):
            update_workload(graph, [], 10)
        with pytest.raises(ReproError):
            update_workload(graph, patterns, -1)
        with pytest.raises(ReproError):
            update_workload(graph, patterns, 10, update_fraction=1.0)
        with pytest.raises(ReproError):
            update_workload(graph, patterns, 10, ops_per_update=0)
        with pytest.raises(ReproError):
            update_workload(graph, patterns, 10, exponent=0.0)
