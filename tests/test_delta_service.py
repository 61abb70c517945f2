"""QueryService under graph updates: apply_delta, migration, subscriptions.

The serving contract across a mutation: every answer served after
``apply_delta`` equals a cold evaluation of the post-delta graph, cache
entries whose affected area cannot touch them carry across the version for
free, standing queries are maintained (not recomputed) and notified of their
diff, and a concurrent ``submit`` racing the update observes either the pre-
or the post-delta graph — never a mix.
"""

from __future__ import annotations

import threading

import pytest

from repro.delta import GraphDelta, apply_delta
from repro.graph import PropertyGraph
from repro.index import GraphIndex
from repro.index.serialize import to_bytes
from repro.matching import EnumMatcher, QMatch
from repro.parallel import PQMatch
from repro.patterns import PatternBuilder
from repro.service import QueryService
from repro.utils.errors import ReproError

from fixtures import build_paper_g1, build_q2, build_q3


@pytest.fixture
def service_g1():
    graph = build_paper_g1()
    with QueryService(graph, PQMatch(num_workers=2, d=2), name="delta-svc") as service:
        yield graph, service


def two_region_graph():
    """A person chain with a product attached far from one end.

    Churn near ``p0`` stays > 1 hop away from the only product node, so a
    radius-1 product-focused pattern is provably unaffected — the selective
    migration case.
    """
    graph = PropertyGraph("two-region")
    chain = [f"p{i}" for i in range(6)]
    for person in chain:
        graph.add_node(person, "person")
    for left, right in zip(chain, chain[1:]):
        graph.add_edge(left, right, "follow")
    graph.add_node("gadget", "product")
    graph.add_edge("p5", "gadget", "recom")
    return graph


def product_pattern():
    return (
        PatternBuilder("recommended-product")
        .focus("po", "product")
        .node("z", "person")
        .edge("z", "po", "recom")
        .build()
    )


class TestApplyDelta:
    def test_served_answers_track_the_mutation(self, service_g1):
        graph, service = service_g1
        pattern = build_q3(p=2)
        assert service.evaluate(pattern).answer == {"x2"}
        service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
        assert service.evaluate(pattern).answer == {"x1", "x2"}
        assert service.evaluate(pattern).answer == frozenset(
            QMatch().evaluate_answer(pattern, graph)
        )
        assert service.stats.deltas_applied == 1

    def test_inverse_rolls_the_service_back(self, service_g1):
        graph, service = service_g1
        pattern = build_q3(p=2)
        before = service.evaluate(pattern).answer
        inverse = service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
        assert service.evaluate(pattern).answer != before
        service.apply_delta(inverse)
        assert service.evaluate(pattern).answer == before

    def test_attribute_only_delta_keeps_cache_warm(self, service_g1):
        _graph, service = service_g1
        pattern = build_q2()
        service.evaluate(pattern)
        service.apply_delta(GraphDelta.build(attr_sets=[("x1", "age", 30)]))
        result = service.evaluate(pattern)
        assert result.cached
        assert service.stats.deltas_applied == 0  # attribute-only: no delta work

    def test_closed_service_rejects_updates(self):
        graph = build_paper_g1()
        service = QueryService(graph, PQMatch(num_workers=2, d=2))
        service.close()
        with pytest.raises(ReproError):
            service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))


class TestCacheMigration:
    def test_unaffected_entry_is_carried_across_the_version(self):
        graph = two_region_graph()
        with QueryService(graph, PQMatch(num_workers=2, d=1)) as service:
            pattern = product_pattern()
            first = service.evaluate(pattern)
            assert not first.cached
            computed_before = service.stats.computed
            # Churn at the far end of the chain: AFF (radius 1) is all-person.
            service.apply_delta(GraphDelta.insert_edge("p0", "p2", "follow"))
            assert service.stats.delta_cache_carried == 1
            after = service.evaluate(pattern)
            assert after.cached, "carried entry must be a hit at the new version"
            assert after.answer == first.answer
            assert service.stats.computed == computed_before

    def test_deleted_focus_match_is_never_carried(self):
        """Regression: deleted nodes are absent from AFF, so the focus-label
        guard alone cannot see a cached match the batch itself deleted — the
        migration must inspect the answer and drop the entry."""
        graph = two_region_graph()
        with QueryService(graph, PQMatch(num_workers=2, d=1)) as service:
            pattern = product_pattern()
            assert service.evaluate(pattern).answer == {"gadget"}
            # Delete the only product node: its neighbours (all persons) are
            # the affected area, so the label guard would happily carry.
            service.apply_delta(GraphDelta.build(node_deletes=["gadget"]))
            result = service.evaluate(pattern)
            assert result.answer == frozenset()
            assert result.answer == frozenset(QMatch().evaluate_answer(pattern, graph))

    def test_affected_entry_is_dropped_and_recomputed(self):
        graph = two_region_graph()
        with QueryService(graph, PQMatch(num_workers=2, d=1)) as service:
            pattern = product_pattern()
            assert service.evaluate(pattern).answer == {"gadget"}
            # Churn adjacent to the product: its label is inside AFF — drop.
            service.apply_delta(GraphDelta.delete_edge("p5", "gadget", "recom"))
            assert service.stats.delta_cache_dropped >= 1
            result = service.evaluate(pattern)
            assert not result.cached or result.answer == frozenset()
            assert result.answer == frozenset(QMatch().evaluate_answer(pattern, graph))


class TestSubscriptions:
    def test_standing_query_is_maintained_and_notified(self, service_g1):
        graph, service = service_g1
        pattern = build_q3(p=2)
        seen = []
        subscription = service.subscribe(
            pattern, callback=lambda sub, note: seen.append(note)
        )
        assert subscription.answer == {"x2"}
        service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
        assert subscription.answer == {"x1", "x2"}
        assert subscription.version == graph.version
        assert len(seen) == 1 and seen[0].added == {"x1"} and not seen[0].removed
        assert subscription.notifications == seen
        assert service.stats.delta_subscription_updates == 1

    def test_no_notification_when_the_answer_is_unchanged(self, service_g1):
        _graph, service = service_g1
        subscription = service.subscribe(build_q3(p=2))
        # x3 follows v1: v1 recommends, but x3 still follows the bad-rater v4.
        service.apply_delta(GraphDelta.insert_edge("x3", "v1", "follow"))
        assert subscription.answer == {"x2"}
        assert subscription.notifications == []

    def test_maintained_answer_lands_in_the_cache(self, service_g1):
        _graph, service = service_g1
        pattern = build_q3(p=2)
        service.subscribe(pattern)
        service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
        # The maintenance filed the new answer: the next evaluate is a hit.
        result = service.evaluate(pattern)
        assert result.cached
        assert result.answer == {"x1", "x2"}

    def test_cancelled_subscription_stops_updating(self, service_g1):
        _graph, service = service_g1
        subscription = service.subscribe(build_q3(p=2))
        subscription.cancel()
        subscription.cancel()  # idempotent
        service.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
        assert subscription.answer == {"x2"}  # frozen at cancellation
        assert not subscription.active

    def test_node_delete_removes_a_standing_match(self, service_g1):
        graph, service = service_g1
        subscription = service.subscribe(build_q3(p=2))
        assert subscription.answer == {"x2"}
        service.apply_delta(GraphDelta.build(node_deletes=["x2"]))
        assert subscription.answer == frozenset()
        assert subscription.notifications[-1].removed == {"x2"}
        assert subscription.answer == frozenset(
            QMatch().evaluate_answer(build_q3(p=2), graph)
        )


class TestCanonicalizationMemo:
    def test_repeat_object_submissions_skip_canonicalization(self, service_g1):
        _graph, service = service_g1
        pattern = build_q2()
        service.evaluate(pattern)
        assert service.stats.memo_hits == 0
        service.evaluate(pattern)
        service.evaluate(pattern)
        assert service.stats.memo_hits == 2

    def test_equivalent_objects_still_meet_at_the_fingerprint(self, service_g1):
        _graph, service = service_g1
        first = service.evaluate(build_q2())
        second = service.evaluate(build_q2())  # distinct object, same pattern
        assert second.fingerprint == first.fingerprint
        assert second.cached
        assert service.stats.memo_hits == 0  # distinct objects never memo-hit

    def test_memo_hits_keep_the_representative_registry_warm(self):
        """Regression: a memo hit must refresh the fingerprint registry's LRU
        slot — otherwise the hottest (always-memo-hit) patterns are the first
        representatives evicted and silently lose delta carry-forward."""
        graph = build_paper_g1()
        with QueryService(
            graph, PQMatch(num_workers=2, d=2), cache_capacity=2
        ) as service:
            hot = build_q2()
            fingerprint = service.evaluate(hot).fingerprint
            service.evaluate(build_q3(p=2))
            service.evaluate(hot)  # memo hit: must move hot to MRU
            service.evaluate(build_q3(p=3))  # evicts the true LRU instead
            assert fingerprint in service._patterns

    def test_memo_does_not_pin_pattern_objects_beyond_the_registry(self):
        """The memo holds weak keys; only the *bounded* fingerprint registry
        (one representative per fingerprint, for delta-time migration) keeps a
        strong reference — once LRU pressure evicts the fingerprint, the
        pattern object must be collectable."""
        import gc
        import weakref

        graph = build_paper_g1()
        with QueryService(
            graph, PQMatch(num_workers=2, d=2), cache_capacity=1
        ) as service:
            pattern = build_q2()
            service.evaluate(pattern)
            ref = weakref.ref(pattern)
            del pattern
            service.evaluate(build_q3(p=2))  # evicts Q2's registry entry
            gc.collect()
            assert ref() is None, "an evicted pattern stayed pinned"


class TestConcurrentSubmitVsApplyDelta:
    def test_racing_submits_see_pre_or_post_delta_never_a_mix(self):
        graph = build_paper_g1()
        pattern = build_q3(p=2)
        delta = GraphDelta.insert_edge("x1", "v1", "follow")

        pre_graph = build_paper_g1()
        pre = frozenset(QMatch().evaluate_answer(pattern, pre_graph))
        apply_delta(pre_graph, delta)
        post = frozenset(QMatch().evaluate_answer(pattern, pre_graph))
        assert pre != post  # the race is observable

        with QueryService(graph, PQMatch(num_workers=2, d=2)) as service:
            start = threading.Barrier(5)
            futures = []

            def submitter():
                start.wait()
                for _ in range(12):
                    futures.append(service.submit(build_q3(p=2)))

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            start.wait()
            service.apply_delta(delta)
            for thread in threads:
                thread.join()
            answers = {future.result(timeout=30).answer for future in futures}

        assert answers <= {pre, post}, (
            "a served answer mixed pre- and post-delta state"
        )
        assert post in answers  # the tail of the stream ran after the update


class TestFixpointSelfLoopPrecondition:
    """The self-loop precondition of DMatch's fixpoint answer is a property
    of each snapshot, so it must follow the served graph through deltas."""

    @staticmethod
    def structural_bytes(index: GraphIndex) -> bytes:
        return to_bytes(index, include_neighborhoods=False, include_compiled_rows=False)

    def test_a_follow_self_loop_sends_the_chain_back_to_the_search(self):
        graph = build_paper_g1()
        chain = build_q2()  # xo -follow-> z -recom-> redmi; xo and z are persons
        with QueryService(graph) as service:
            first = service.evaluate(chain)
            assert first.counter.extras == {"fixpoint.answered": 1}
            assert service.explain(chain).strategy == "fixpoint"

            # v1 recommends redmi; following itself, it is a homomorphic (not
            # isomorphic) image of the whole chain, which only the search rules out.
            service.apply_delta(GraphDelta.insert_edge("v1", "v1", "follow"))
            looped = service.evaluate(chain)
            assert not looped.cached
            assert looped.counter.extras == {"fixpoint.declined.self_loop": 1}
            assert set(looped.answer) == EnumMatcher().evaluate_answer(chain, graph)
            assert "v1" not in looped.answer
            report = service.explain(chain)
            assert (report.strategy, report.reason) == ("search", "self_loop")
            refreshed = GraphIndex.for_graph(graph)
            assert refreshed.has_self_loop("follow")
            # The memo stays out of the wire format.
            assert self.structural_bytes(refreshed) == self.structural_bytes(
                GraphIndex.build(graph)
            )

            service.apply_delta(GraphDelta.delete_edge("v1", "v1", "follow"))
            restored = service.evaluate(chain)
            assert restored.counter.extras == {"fixpoint.answered": 1}
            assert restored.answer == first.answer
            assert service.explain(chain).strategy == "fixpoint"
            refreshed = GraphIndex.for_graph(graph)
            assert not refreshed.has_self_loop("follow")
            assert self.structural_bytes(refreshed) == self.structural_bytes(
                GraphIndex.build(graph)
            )
