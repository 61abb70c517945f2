"""The QueryService façade (:mod:`repro.service.server`).

Contracts under test: served answers are byte-identical to cold PQMatch runs,
equivalent queries share one computation (cache across batches, dedupe within
a batch), all misses of a batch ship in one executor round, mutation triggers
recomputation while attribute updates do not, concurrent ``submit`` calls are
safe and coalesce, and process-backend serving never rebuilds indexes inside
pool workers.

The ``submit`` / ``close`` contract belongs to the request pipeline both
serving tiers share (:mod:`repro.service.pipeline`), so those cases run over
``QueryService`` *and* ``ShardedService`` through the ``make_tier`` fixture.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.index.snapshot import build_call_count
from repro.parallel import PQMatch
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.patterns.quantifier import CountingQuantifier
from repro.serve import ShardedService
from repro.service import QueryService, ServiceResult
from repro.utils.errors import PatternValidationError, ReproError, ServiceError


@pytest.fixture(scope="module")
def served_graph():
    return benchmark_graph("pokec", scale=1.0, seed=1)


@pytest.fixture(scope="module")
def queries(served_graph):
    return [
        paper_pattern("Q1"),
        paper_pattern("Q2"),
        paper_pattern("Q3", p=2),
    ] + workload_patterns(served_graph, count=2, seed=5)


@pytest.fixture(scope="module")
def cold_answers(served_graph, queries):
    cold = PQMatch(num_workers=4, d=2)
    return [cold.evaluate_answer(pattern, served_graph) for pattern in queries]


def _renamed(pattern):
    clone = pattern.relabel_nodes({node: f"alias_{node}" for node in pattern.nodes()})
    clone.name = f"{pattern.name}#alias"
    return clone


TIERS = {
    "QueryService": QueryService,
    "ShardedService": lambda graph: ShardedService(graph, num_shards=2),
}


@pytest.fixture(params=sorted(TIERS))
def make_tier(request, served_graph):
    """Builds the serving tier under test (no test here writes to the graph,
    so the fleet may take the shared one as its union graph)."""
    return lambda: TIERS[request.param](served_graph)


def _double_negation():
    """Fingerprints fine on either tier, fails ``validate()`` in compute."""
    broken = QuantifiedGraphPattern(name="double-negation")
    for node in "xyz":
        broken.add_node(node, "person")
    broken.set_focus("x")
    broken.add_edge("x", "y", "follow", CountingQuantifier.negation())
    broken.add_edge("y", "z", "follow", CountingQuantifier.negation())
    return broken


def _wait_until_claimed(future):
    deadline = time.monotonic() + 10
    while not future.running() and not future.done():
        assert time.monotonic() < deadline, "dispatcher never claimed"
        time.sleep(0.005)


class TestServing:
    def test_answers_byte_identical_to_cold_pqmatch(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            served = service.evaluate_many(queries)
            assert [set(result.answer) for result in served] == cold_answers
            assert all(isinstance(result, ServiceResult) for result in served)
            assert all(isinstance(result.answer, frozenset) for result in served)

    def test_repeat_is_served_from_cache(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            first = service.evaluate(queries[0])
            second = service.evaluate(queries[0])
            assert not first.cached and second.cached
            assert second.answer == first.answer == frozenset(cold_answers[0])

    def test_renamed_spelling_hits_the_same_entry(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            first = service.evaluate(queries[0])
            respelled = service.evaluate(_renamed(queries[0]))
            assert respelled.cached
            assert respelled.fingerprint == first.fingerprint
            assert set(respelled.answer) == cold_answers[0]

    def test_in_batch_dedupe_computes_once(self, served_graph, queries):
        with QueryService(served_graph) as service:
            batch = [queries[0], _renamed(queries[0]), queries[0]]
            served = service.evaluate_many(batch)
            assert len({result.fingerprint for result in served}) == 1
            assert [result.answer for result in served] == [served[0].answer] * 3
            assert service.stats.computed == 1
            assert service.stats.deduplicated == 2
            assert service.stats.dispatch_rounds == 1

    def test_batch_misses_ship_in_one_round(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            served = service.evaluate_many(queries)
            assert service.stats.dispatch_rounds == 1
            assert service.stats.computed == len(queries)
            assert [set(result.answer) for result in served] == cold_answers

    def test_empty_batch(self, served_graph):
        with QueryService(served_graph) as service:
            assert service.evaluate_many([]) == []

    def test_zero_builds_when_warm(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate_many(queries)  # warm partition, fragments, indexes
            before = build_call_count()
            service.cache.clear()
            service.evaluate_many(queries)  # recompute everything, warm machinery
            assert build_call_count() == before
            assert service.worker_rebuilds == 0


class TestInvalidation:
    def test_structural_mutation_recomputes(self, queries):
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        with QueryService(graph) as service:
            service.evaluate(queries[0])
            graph.add_node("mutation-probe", "person")
            refreshed = service.evaluate(queries[0])
            assert not refreshed.cached
            cold = PQMatch(num_workers=4, d=2)
            assert set(refreshed.answer) == cold.evaluate_answer(queries[0], graph)

    def test_attribute_update_keeps_cache_warm(self, queries):
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        some_node = next(iter(graph.nodes()))
        with QueryService(graph) as service:
            service.evaluate(queries[0])
            graph.set_node_attr(some_node, "note", "attribute-only")
            assert service.evaluate(queries[0]).cached

    def test_mutation_during_dispatch_cannot_poison_the_cache(self, queries):
        """The batch pins the version it looked up under: an answer computed
        while a mutation interleaves is filed under the OLD version, so the
        next request recomputes instead of being served a stale answer."""
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        with QueryService(graph) as service:
            original_compute = service._compute

            def mutating_compute(unique):
                graph.add_node(f"interloper-{graph.version}", "person")
                return original_compute(unique)

            service._compute = mutating_compute
            service.evaluate(queries[0])  # computed while the graph mutates
            service._compute = original_compute
            refreshed = service.evaluate(queries[0])
            assert not refreshed.cached  # stale answer was unreachable
            cold = PQMatch(num_workers=4, d=2)
            assert set(refreshed.answer) == cold.evaluate_answer(queries[0], graph)


class TestSubmit:
    def test_concurrent_submit_is_correct_and_coalesces(
        self, served_graph, queries, cold_answers
    ):
        stream = (queries * 3)[:12]
        expected = (cold_answers * 3)[:12]
        with QueryService(served_graph) as service:
            futures = [None] * len(stream)

            def submit(position):
                futures[position] = service.submit(stream[position])

            threads = [
                threading.Thread(target=submit, args=(position,))
                for position in range(len(stream))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=60) for future in futures]
            assert [set(result.answer) for result in results] == expected
            assert service.stats.submitted == len(stream)
            # every unique pattern was computed exactly once, regardless of
            # how the dispatcher grouped the submissions into batches
            assert service.stats.computed == len(queries)

    def test_cancelled_future_does_not_kill_the_dispatcher(
        self, make_tier, queries, cold_answers
    ):
        """A future cancelled while queued is skipped; the dispatcher must
        survive and resolve the rest of the batch (a dead dispatcher would
        orphan every later future)."""
        with make_tier() as tier:
            # Block the dispatcher inside its first batch by holding the
            # evaluation lock, so later submissions stay queued.
            with tier._evaluate_lock:
                blocked = tier.submit(queries[0])
                _wait_until_claimed(blocked)
                doomed = tier.submit(queries[1])
                survivor = tier.submit(queries[2])
                assert doomed.cancel()  # still queued: cancellable
            assert set(blocked.result(timeout=60).answer) == cold_answers[0]
            assert set(survivor.result(timeout=60).answer) == cold_answers[2]
            assert doomed.cancelled()
            # a cancelled request leaves nothing behind: it can be re-asked
            assert set(tier.submit(queries[1]).result(timeout=60).answer) == cold_answers[1]

    def test_submit_and_evaluate_after_close_raise(self, make_tier, queries):
        tier = make_tier()
        fingerprint = tier.evaluate(queries[0]).fingerprint
        tier.close()
        tier.close()  # idempotent
        for refused in (
            lambda: tier.submit(queries[0]),
            lambda: tier.evaluate(queries[0]),
            lambda: tier.evaluate_many(queries[:2]),
            lambda: tier.explain(fingerprint),
        ):
            with pytest.raises(ServiceError, match="is closed"):
                refused()
        tier.stats_snapshot()  # telemetry stays readable after close...
        coordinators = [s.coordinator for s in getattr(tier, "services", [tier])]
        # ...and every pool stays down
        assert all(c.current_executor is None for c in coordinators)

    def test_close_drains_queued_work(self, make_tier, queries, cold_answers):
        tier = make_tier()
        with tier._evaluate_lock:  # park the dispatcher: the rest stays queued
            futures = [tier.submit(pattern) for pattern in queries[:3]]
        tier.close()  # joins the dispatcher: accepted work finishes first
        assert all(future.done() for future in futures)
        assert [
            set(future.result(timeout=0).answer) for future in futures
        ] == cold_answers[:3]

    def test_close_concurrent_with_evaluate_never_resurrects_the_pool(
        self, queries
    ):
        """close() must wait for an in-flight evaluation (which passed its
        closed-check first) and only then shut the executor down — the late
        evaluation must not re-create a pool nothing would release."""
        graph = benchmark_graph("pokec", scale=0.5, seed=1)
        service = QueryService(graph)
        service.evaluate(queries[0])  # warm partition + executor
        service.cache.clear()
        entered = threading.Event()
        original_compute = service._compute

        def slow_compute(unique):
            entered.set()
            time.sleep(0.2)
            return original_compute(unique)

        service._compute = slow_compute
        outcome = {}

        def worker():
            try:
                outcome["answer"] = set(service.evaluate(queries[0]).answer)
            except ReproError:
                outcome["closed"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=30)  # worker holds the evaluation lock
        service.close()                  # blocks until the worker finishes
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert service.coordinator.current_executor is None
        assert "answer" in outcome or "closed" in outcome

    def test_one_bad_submission_fails_only_its_own_future(
        self, make_tier, queries, cold_answers
    ):
        """Coalesced batches mix unrelated callers: an invalid pattern must
        fail its own future and leave the strangers' requests served."""
        with make_tier() as tier:
            # Hold the evaluation lock so all three submissions coalesce
            # into the dispatcher's next batch.
            with tier._evaluate_lock:
                first = tier.submit(queries[0])
                _wait_until_claimed(first)
                good = tier.submit(queries[1])
                bad = tier.submit(_double_negation())
                also_good = tier.submit(queries[2])
            assert set(first.result(timeout=60).answer) == cold_answers[0]
            assert set(good.result(timeout=60).answer) == cold_answers[1]
            assert set(also_good.result(timeout=60).answer) == cold_answers[2]
            with pytest.raises(PatternValidationError):
                bad.result(timeout=60)

    def test_invalid_pattern_propagates_through_future(self, make_tier):
        with make_tier() as tier:
            future = tier.submit(_double_negation())
            with pytest.raises(PatternValidationError):
                future.result(timeout=60)

    def test_unfingerprintable_pattern_propagates_through_future(
        self, served_graph, queries, cold_answers
    ):
        """No focus, so canonicalization itself fails — on the dispatcher,
        which must hand the error to the future and keep running."""
        broken = QuantifiedGraphPattern(name="no-focus")
        broken.add_node("x", "person")
        with QueryService(served_graph) as service:
            with pytest.raises(ReproError):
                service.submit(broken).result(timeout=60)
            assert set(service.submit(queries[0]).result(timeout=60).answer) == cold_answers[0]


class TestOnePipeline:
    def test_one_shard_fleet_serves_like_a_query_service(self, served_graph, queries):
        """Both tiers run the same request pipeline, so on one shard — same
        coordinator configuration, same batches with repeats, in-batch
        duplicates and re-spellings — they agree on every answer, every
        ``cached`` flag and the request counters."""
        stream = [
            [queries[0], queries[1], _renamed(queries[0])],
            [queries[0], queries[2], queries[2]],
            [_renamed(queries[1]), queries[3], queries[0], _renamed(queries[3])],
        ]
        with QueryService(served_graph, PQMatch(num_workers=2, d=2)) as service, ShardedService(
            served_graph,
            num_shards=1,
            coordinator_factory=lambda shard: PQMatch(num_workers=2, d=2),
        ) as fleet:
            for batch in stream:
                assert [
                    (r.pattern, r.fingerprint, r.answer, r.cached)
                    for r in fleet.evaluate_many(batch)
                ] == [
                    (r.pattern, r.fingerprint, r.answer, r.cached)
                    for r in service.evaluate_many(batch)
                ]
            for counter in ("served", "batches", "computed", "deduplicated", "memo_hits"):
                assert getattr(fleet.stats, counter) == getattr(service.stats, counter)
            assert service.stats.computed == 4 and service.stats.deduplicated == 3


class TestLifecycle:
    def test_evaluate_answer_rejects_other_graphs(self, served_graph, queries):
        other = benchmark_graph("yago2", scale=1.0, seed=1)
        with QueryService(served_graph) as service:
            with pytest.raises(ReproError):
                service.evaluate_answer(queries[0], other)
            assert service.evaluate_answer(queries[0], served_graph) == frozenset(
                service.evaluate(queries[0]).answer
            )

    def test_stats_snapshot_is_flat_and_complete(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate_many(queries[:2])
            snapshot = service.stats_snapshot()
            for key in (
                "served", "batches", "dispatch_rounds", "computed",
                "deduplicated", "cache_hits", "cache_misses", "worker_rebuilds",
            ):
                assert key in snapshot
            assert snapshot["served"] == 2
            assert snapshot["worker_rebuilds"] == 0

    def test_context_manager_closes_executor(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate(queries[0])
            coordinator = service.coordinator
        assert coordinator._executor is None  # released by close()


class TestProcessBackend:
    def test_process_serving_never_rebuilds_in_workers(self, queries):
        graph = benchmark_graph("pokec", scale=0.3, seed=1)
        serial_service = QueryService(graph, PQMatch(num_workers=2, d=2))
        expected = [
            set(result.answer) for result in serial_service.evaluate_many(queries[:2])
        ]
        serial_service.close()
        with QueryService(
            graph, PQMatch(num_workers=2, d=2, executor="process")
        ) as service:
            first = service.evaluate_many(queries[:2])
            again = service.evaluate_many(queries[:2])
            assert [set(result.answer) for result in first] == expected
            assert all(result.cached for result in again)
            assert service.worker_rebuilds == 0
