"""Tests for the parallel layer: workers, executors and the PQMatch coordinator."""

from __future__ import annotations

import pytest

from repro.matching import QMatch
from repro.parallel import (
    FragmentTask,
    PQMatch,
    SerialExecutor,
    SimulatedCluster,
    ThreadedExecutor,
    make_executor,
    match_fragment,
    mqmatch_fragment,
    penum_engine,
    pqmatch_engine,
    pqmatch_n_engine,
    pqmatch_s_engine,
)
from repro.parallel.partition import DPar
from repro.utils import PartitionError


class TestWorker:
    def test_match_fragment_restricts_to_owned_nodes(self, paper_g1, pattern_q2):
        result = match_fragment(pattern_q2, paper_g1, owned_nodes={"x1"}, fragment_id=7)
        assert result.fragment_id == 7
        assert result.answer == {"x1"}  # x2 matches too but is not owned here

    def test_match_fragment_empty_ownership(self, paper_g1, pattern_q2):
        result = match_fragment(pattern_q2, paper_g1, owned_nodes=set())
        assert result.answer == set()

    def test_match_fragment_without_ownership_is_unrestricted(self, paper_g1, pattern_q2):
        result = match_fragment(pattern_q2, paper_g1, owned_nodes=None)
        assert result.answer == {"x1", "x2"}
        chunked = mqmatch_fragment(pattern_q2, paper_g1, owned_nodes=None, threads=3)
        assert chunked.answer == {"x1", "x2"}

    def test_engine_type_errors_surface_and_evaluate_once(self, paper_g1, pattern_q2):
        class Broken:
            calls = 0

            def evaluate(self, pattern, graph, focus_restriction=None):
                Broken.calls += 1
                return len(None)  # a genuine defect, not a capability answer

        with pytest.raises(TypeError):
            match_fragment(pattern_q2, paper_g1, owned_nodes={"x1"}, engine=Broken())
        assert Broken.calls == 1

    def test_restrictionless_engine_is_filtered_to_owned_nodes(self, paper_g1, pattern_q2):
        class WholeGraphOnly:
            calls = 0

            def evaluate(self, pattern, graph):
                WholeGraphOnly.calls += 1
                return QMatch().evaluate(pattern, graph)

        result = match_fragment(
            pattern_q2, paper_g1, owned_nodes={"x1", "x3"}, engine=WholeGraphOnly()
        )
        assert result.answer == {"x1"}
        assert WholeGraphOnly.calls == 1

    def test_mqmatch_chunks_cover_all_answers(self, paper_g1, pattern_q2):
        whole = match_fragment(pattern_q2, paper_g1, owned_nodes=set(paper_g1.nodes()))
        chunked = mqmatch_fragment(
            pattern_q2, paper_g1, owned_nodes=set(paper_g1.nodes()), threads=3
        )
        assert chunked.answer == whole.answer

    def test_mqmatch_single_thread_falls_back(self, paper_g1, pattern_q2):
        single = mqmatch_fragment(
            pattern_q2, paper_g1, owned_nodes=set(paper_g1.nodes()), threads=1
        )
        assert single.answer == {"x1", "x2"}

    def test_fragment_task_run(self, paper_g1, pattern_q2):
        task = FragmentTask(
            fragment_id=1,
            fragment_graph=paper_g1,
            owned_nodes={"x1", "x2", "x3"},
            pattern=pattern_q2,
            engine=QMatch(),
        )
        result = task.run()
        assert result.answer == {"x1", "x2"}


class TestExecutors:
    def make_tasks(self, paper_g1, pattern_q2):
        return [
            FragmentTask(0, paper_g1, {"x1"}, pattern_q2, QMatch()),
            FragmentTask(1, paper_g1, {"x2", "x3"}, pattern_q2, QMatch()),
        ]

    def test_serial_executor(self, paper_g1, pattern_q2):
        results = SerialExecutor().run(self.make_tasks(paper_g1, pattern_q2))
        assert [r.answer for r in results] == [{"x1"}, {"x2"}]

    def test_threaded_executor(self, paper_g1, pattern_q2):
        results = ThreadedExecutor(max_workers=2).run(self.make_tasks(paper_g1, pattern_q2))
        assert {frozenset(r.answer) for r in results} == {frozenset({"x1"}), frozenset({"x2"})}

    def test_simulated_cluster(self, paper_g1, pattern_q2):
        results = SimulatedCluster(num_workers=2).run(self.make_tasks(paper_g1, pattern_q2))
        assert len(results) == 2

    def test_make_executor_factory(self):
        assert make_executor("serial", 4).name == "serial"
        assert make_executor("thread", 4).name == "thread"
        assert make_executor("process", 4).name == "process"
        assert make_executor("simulated", 4).name == "simulated"
        with pytest.raises(PartitionError):
            make_executor("quantum", 4)

    def test_invalid_worker_counts(self):
        with pytest.raises(PartitionError):
            ThreadedExecutor(0)
        with pytest.raises(PartitionError):
            SimulatedCluster(0)


class TestPQMatch:
    def test_matches_sequential_on_paper_graphs(self, paper_g1, paper_g2, pattern_q3, pattern_q4):
        for graph, pattern in ((paper_g1, pattern_q3), (paper_g2, pattern_q4)):
            sequential = QMatch().evaluate_answer(pattern, graph)
            for workers in (1, 2, 4):
                parallel = PQMatch(num_workers=workers, d=2, seed=0).evaluate_answer(
                    pattern, graph
                )
                assert parallel == sequential

    def test_matches_sequential_on_dataset(self, small_pokec, dataset_q1, dataset_q3):
        sequential_engine = QMatch()
        parallel_engine = pqmatch_engine(num_workers=4, d=2)
        for pattern in (dataset_q1, dataset_q3):
            assert parallel_engine.evaluate_answer(pattern, small_pokec) == (
                sequential_engine.evaluate_answer(pattern, small_pokec)
            )

    def test_partition_is_reused_across_queries(self, small_pokec, dataset_q1, dataset_q3):
        engine = PQMatch(num_workers=3, d=2, seed=0)
        engine.evaluate(dataset_q1, small_pokec)
        first_partition = engine._partition
        engine.evaluate(dataset_q3, small_pokec)
        assert engine._partition is first_partition

    def test_partition_extends_for_larger_radius(self, small_yago):
        from repro.datasets import paper_pattern

        engine = PQMatch(num_workers=2, d=1, seed=0)
        engine.partition(small_yago)
        assert engine._partition.d == 1
        q4 = paper_pattern("Q4", p=2)
        engine.evaluate(q4, small_yago)
        assert engine._partition.d >= q4.radius()

    def test_work_is_distributed(self, small_pokec, dataset_q3):
        result = pqmatch_engine(num_workers=4, d=2).evaluate(dataset_q3, small_pokec)
        busy = [f for f in result.fragments if f.counter.total_work() > 0]
        assert len(busy) >= 2
        assert result.total_work >= result.makespan_work
        assert result.work_speedup >= 1.0
        assert 0.0 <= result.work_skew <= 1.0

    def test_more_workers_reduce_makespan(self, small_pokec, dataset_q3):
        """The parallel-scalability shape: makespan work shrinks as n grows."""
        makespans = {}
        for workers in (2, 8):
            result = pqmatch_engine(num_workers=workers, d=2).evaluate(dataset_q3, small_pokec)
            makespans[workers] = result.makespan_work
        assert makespans[8] < makespans[2]

    def test_thread_executor_agrees(self, small_pokec, dataset_q1):
        serial = pqmatch_engine(num_workers=3, executor="serial").evaluate_answer(
            dataset_q1, small_pokec
        )
        threaded = pqmatch_engine(num_workers=3, executor="thread").evaluate_answer(
            dataset_q1, small_pokec
        )
        assert serial == threaded

    def test_engine_variants_agree(self, small_pokec, dataset_q3):
        engines = [
            pqmatch_engine(num_workers=3),
            pqmatch_s_engine(num_workers=3),
            pqmatch_n_engine(num_workers=3),
            penum_engine(num_workers=3),
        ]
        answers = {frozenset(engine.evaluate_answer(dataset_q3, small_pokec)) for engine in engines}
        assert len(answers) == 1

    def test_invalid_worker_count(self):
        with pytest.raises(PartitionError):
            PQMatch(num_workers=0)

    def test_names_identify_variants(self):
        assert "PQMatch" in pqmatch_engine(4).name
        assert "PQMatchS" in pqmatch_s_engine(4).name
        assert "PQMatchN" in pqmatch_n_engine(4).name
        assert "PEnum" in penum_engine(4).name

    def test_union_of_owned_answers_has_no_duplicates(self, small_pokec, dataset_q1):
        result = pqmatch_engine(num_workers=4).evaluate(dataset_q1, small_pokec)
        total = sum(len(fragment.answer) for fragment in result.fragments)
        assert total == len(result.answer)
