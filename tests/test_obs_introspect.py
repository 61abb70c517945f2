"""Service introspection (:mod:`repro.obs.introspect` + ``QueryService.stats()``).

Contracts under test: ``service.stats`` still reads as the lifetime counter
object (every existing assertion style keeps working) while *calling* it
returns the full introspection snapshot; per-fingerprint request counts,
cache-hit counts and p50/p99 latencies are consistent with the ResultCache's
own counters; one per-fingerprint ledger backs both ``stats()`` and
``explain()``; and the flight recorder's ``slow_query`` ring captures a
pathological pattern together with its matching-layer verification counters,
for served requests and subscription maintenance alike.
"""

from __future__ import annotations

import pytest

from fixtures import build_q3
from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.graph.generators import small_world_social_graph
from repro.obs.flight import FlightRecorder
from repro.obs.introspect import LATENCY_BUCKETS, ServiceIntrospection
from repro.service import QueryService
from repro.utils.counters import WorkCounter


@pytest.fixture(scope="module")
def graph():
    return benchmark_graph("pokec", scale=0.5, seed=2)


@pytest.fixture(scope="module")
def patterns(graph):
    return [paper_pattern("Q1")] + workload_patterns(graph, count=2, seed=7)


class TestUnitIntrospection:
    def test_observe_accumulates_per_fingerprint(self):
        intro = ServiceIntrospection()
        intro.observe("fp1", "Q", 0.010, cached=False,
                      counter=WorkCounter(verifications=5))
        intro.observe("fp1", "Q", 0.001, cached=True)
        stats = intro.fingerprint("fp1")
        assert stats.requests == 2
        assert stats.cache_hits == 1 and stats.computed == 1
        assert stats.verifications == 5
        assert 0.0 < stats.p50 <= stats.p99
        snapshot = intro.snapshot()
        assert snapshot["fp1"]["requests"] == 2
        # only the computed request filed an epoch observation
        assert snapshot["fp1"]["epochs"]["None"]["queries"] == 1

    def test_capacity_evicts_least_recently_served(self):
        intro = ServiceIntrospection(capacity=2)
        for fingerprint in ("a", "b", "c"):
            intro.observe(fingerprint, "Q", 0.001, cached=True)
        assert intro.fingerprint("a") is None
        assert len(intro) == 2

    def test_cache_hits_allocate_no_epoch_state(self):
        intro = ServiceIntrospection()
        intro.observe("fp", "Q", 0.001, cached=True, epoch=1)
        assert intro.fingerprint("fp").epochs is None
        assert intro.observed("fp") is None
        assert intro.snapshot()["fp"]["epochs"] == {}

    def test_per_query_averages_latest_epoch_first(self):
        intro = ServiceIntrospection()
        for epoch, extensions, answers in ((1, 10, 2), (1, 20, 4), (2, 100, 1)):
            intro.observe("fp", "q", 0.001, cached=False,
                          counter=WorkCounter(extensions=extensions, verifications=4),
                          epoch=epoch, answer_size=answers)
        latest = intro.observed("fp")
        assert latest["epoch"] == 2
        assert latest["extensions_per_query"] == 100.0
        older = intro.observed("fp", epoch=1)
        assert older["queries"] == 2
        assert older["extensions_per_query"] == 15.0
        assert older["answers_per_query"] == 3.0
        assert intro.observed("fp", epoch=7) is None

    def test_microsecond_hits_resolve_below_100us(self):
        # A cache hit is served in a few microseconds: the quantiles must
        # land in the sample's own bucket, not read off a 100 µs floor.
        intro = ServiceIntrospection()
        for _ in range(1000):
            intro.observe("fp", "Q", 8e-6, cached=True)
        stats = intro.fingerprint("fp")
        assert 5e-6 <= stats.p50 <= 10e-6
        assert 5e-6 <= stats.p99 <= 10e-6
        assert stats.mean == pytest.approx(8e-6)

    def test_quantiles_interpolate_and_clamp_the_tail(self):
        intro = ServiceIntrospection()
        for elapsed in (0.0002, 0.002, 0.02, 0.2, 2.0):
            intro.observe("fp", "Q", elapsed, cached=True)
        stats = intro.fingerprint("fp")
        assert stats.mean == pytest.approx(2.2222 / 5)
        assert 0.0 < stats.p50 <= stats.p99
        assert 0.01 < stats.p50 <= 0.025  # the 0.02 sample's bucket
        # the +inf tail clamps to the largest finite bound
        for _ in range(1000):
            intro.observe("fp", "Q", 10_000.0, cached=True)
        assert stats.p99 == LATENCY_BUCKETS[-1]

    def test_bounded_both_ways(self):
        intro = ServiceIntrospection(capacity=2, epoch_capacity=2)
        for index in range(4):
            intro.observe(f"fp{index}", "q", 0.001, cached=False, epoch=1)
        assert set(intro.snapshot()) == {"fp2", "fp3"}
        for epoch in range(4):
            intro.observe("fp3", "q", 0.001, cached=False, epoch=epoch)
        assert set(intro.snapshot()["fp3"]["epochs"]) == {"2", "3"}

    def test_slow_query_log_threshold_and_bound(self):
        intro = ServiceIntrospection(slow_query_threshold=0.01)
        flight = FlightRecorder(capacity=2)
        assert intro.slow_query("fp", "Q", 0.001) is None  # under threshold
        for position in range(3):
            record = intro.slow_query("fp", "Q", 0.02 + position,
                                      counter=WorkCounter(verifications=3))
            assert record.threshold == 0.01 and record.verifications == 3
            flight.record("slow_query", **record.as_dict())
        ring = flight.events("slow_query")
        assert len(ring) == 2 and flight.dropped == 1
        assert ring[-1].data["elapsed_seconds"] == pytest.approx(2.02)

    def test_slow_query_log_disabled_by_default(self):
        intro = ServiceIntrospection()
        assert intro.slow_query_threshold is None
        assert intro.slow_query("fp", "Q", 100.0) is None


class TestServiceStats:
    def test_stats_attribute_and_call_coexist(self, graph, patterns):
        with QueryService(graph) as service:
            service.evaluate(patterns[0])
            service.evaluate(patterns[0])
            # attribute reads: the lifetime counters, unchanged contract
            assert service.stats.computed == 1
            assert service.stats.served == 2
            # calling it: the introspection snapshot
            snapshot = service.stats()
            assert snapshot["service"]["computed"] == 1
            assert snapshot is not service.stats

    def test_snapshot_consistent_with_cache_internals(self, graph, patterns):
        with QueryService(graph) as service:
            service.evaluate_many(patterns)          # all misses
            service.evaluate_many(patterns)          # all hits
            service.evaluate(patterns[0])            # one more hit
            snapshot = service.stats()

            cache_stats = service.cache.stats
            assert snapshot["cache"]["hits"] == cache_stats.hits
            assert snapshot["cache"]["misses"] == cache_stats.misses
            # the snapshot rounds to 4 decimals for stable display
            assert snapshot["cache"]["hit_rate"] == pytest.approx(
                cache_stats.hit_rate, abs=5e-5
            )
            assert snapshot["cache"]["entries"] == len(service.cache)

            fingerprints = snapshot["fingerprints"]
            assert len(fingerprints) == len(patterns)
            assert sum(entry["requests"] for entry in fingerprints.values()) == (
                cache_stats.hits + cache_stats.misses
            )
            assert sum(entry["cache_hits"] for entry in fingerprints.values()) == (
                cache_stats.hits
            )
            for entry in fingerprints.values():
                assert entry["p50_seconds"] <= entry["p99_seconds"]
                assert entry["computed"] == 1
            # a computed request costs real time; its p99 reflects that
            hottest = max(fingerprints.values(), key=lambda e: e["requests"])
            assert hottest["p99_seconds"] > 0.0

    def test_snapshot_covers_pool_graph_and_subscriptions(self, graph, patterns):
        with QueryService(graph) as service:
            subscription = service.subscribe(patterns[0])
            snapshot = service.stats()
            assert snapshot["subscriptions"] == 1
            assert snapshot["graph"]["version"] == graph.version
            assert snapshot["pool"]["worker_rebuilds"] == 0
            subscription.cancel()
            assert service.stats()["subscriptions"] == 0

    def test_introspection_bound_by_capacity(self, graph, patterns):
        with QueryService(graph) as service:
            service.introspection = ServiceIntrospection(capacity=1)
            service.evaluate_many(patterns)
            assert len(service.stats()["fingerprints"]) == 1


class TestOneLedger:
    def test_stats_and_explain_read_the_same_fingerprints(self):
        """300 distinct computed fingerprints: more than the old explain
        registry kept, fewer than the ledger's bound — every fingerprint
        ``stats()`` lists still has its traffic in ``explain()``."""
        graph = small_world_social_graph(40, 90, seed=11)
        with QueryService(graph) as service:
            results = service.evaluate_many([build_q3(p=p) for p in range(1, 301)])
            fingerprints = service.stats()["fingerprints"]
            assert len({result.fingerprint for result in results}) == 300
            assert set(fingerprints) == {result.fingerprint for result in results}
            for fingerprint in fingerprints:
                traffic = service.explain(fingerprint).traffic
                assert (traffic["queries"], traffic["epoch"]) == (1, graph.version)
            for entry in fingerprints.values():
                assert entry["epochs"][str(graph.version)]["queries"] == 1


class TestSlowQueryRegression:
    def test_records_live_in_the_flight_ring(self, graph):
        with QueryService(graph, slow_query_threshold=0.0) as service:
            service.flight = FlightRecorder(capacity=2)
            for _ in range(3):
                service.evaluate(paper_pattern("Q1"))
            ring = service.flight.events("slow_query")
            records = service.stats()["slow_queries"]
        assert len(ring) == 2 and service.flight.dropped == 1
        assert [record["seq"] for record in records] == [event.seq for event in ring]
        assert all(record["service"] == service.name for record in records)

    def test_pathological_pattern_lands_in_log_with_counters(self, graph):
        """Satellite regression: with the threshold at 0.0 every served

        query is 'slow'; the pathological (most expensive) pattern must
        appear with its fingerprint and non-zero verification counters."""
        pathological = paper_pattern("Q3", p=2)
        with QueryService(graph, slow_query_threshold=0.0) as service:
            result = service.evaluate(pathological)
            records = service.stats()["slow_queries"]
        assert records, "threshold 0.0 must log every request"
        entry = next(
            record for record in records
            if record["fingerprint"] == result.fingerprint
        )
        assert entry["pattern"] == pathological.name
        assert not entry["cached"]
        assert entry["verifications"] > 0
        assert entry["elapsed_seconds"] >= 0.0

    def test_log_off_by_default(self, graph):
        with QueryService(graph) as service:
            service.evaluate(paper_pattern("Q1"))
            assert service.stats()["slow_queries"] == []

    def test_subscription_maintenance_is_logged_with_aff_size(self, graph):
        from repro.delta import GraphDelta

        pattern = paper_pattern("Q1")
        with QueryService(graph, slow_query_threshold=0.0) as service:
            service.subscribe(pattern)
            before = len(service.stats()["slow_queries"])
            node = next(iter(graph.nodes()))
            delta = GraphDelta(edge_inserts=(
                (node, f"obs-probe-{graph.version}", "follow"),
            ), node_inserts=((f"obs-probe-{graph.version}", "person", {}),))
            service.apply_delta(delta)
            records = service.stats()["slow_queries"][before:]
        assert any(r["aff_size"] >= 0 and r["pattern"] == pattern.name
                   for r in records)

    def test_subscription_maintenance_reaches_the_flight_recorder(self, graph):
        from repro.delta import GraphDelta

        pattern = paper_pattern("Q1")
        with QueryService(graph, slow_query_threshold=0.0) as service:
            subscription = service.subscribe(pattern)
            node = next(iter(graph.nodes()))
            probe = f"obs-ring-{graph.version}"
            service.apply_delta(GraphDelta(
                node_inserts=((probe, "person", {}),),
                edge_inserts=((node, probe, "follow"),),
            ))
            ring = [event.data for event in service.flight.events("slow_query")]
            records = service.stats()["slow_queries"]
        # Maintenance is the one record with no cache route.
        maintained = [data for data in ring if data["cache_route"] == ""]
        assert len(maintained) == 1
        assert maintained[0]["fingerprint"] == subscription.fingerprint
        assert maintained[0]["aff_size"] > 0
        assert [record["seq"] for record in records] == [
            event.seq for event in service.flight.events("slow_query")
        ]
