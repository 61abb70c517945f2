"""Tests for the two-level plan cache and its service / pool integration.

The invariants under test, in cache terms:

* **entry** keys carry the index-stats epoch ``(id(graph), graph.version)``
  and the engine options key — an engine change or a graph mutation misses;
* **programs** are keyed ``(fingerprint, options_key)`` only — an epoch miss
  re-resolves but never recompiles, so each unique fingerprint compiles at
  most once per process (the acceptance contract, asserted on both the
  coordinator and the pool-worker side).
"""

from __future__ import annotations

import pytest

from repro.graph import PropertyGraph
from repro.matching import QMatch
from repro.parallel import PQMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import (
    PlanCache,
    compile_plan,
    plan_compile_count,
    worker_plan_cache,
)
from repro.service import QueryService
from repro.service.patterns import canonicalize


def make_graph(name: str = "plan-cache-graph") -> PropertyGraph:
    graph = PropertyGraph(name)
    for person in ("u1", "u2", "u3", "u4"):
        graph.add_node(person, "person")
    graph.add_node("prod", "product")
    graph.add_edge("u1", "u2", "follow")
    graph.add_edge("u1", "u3", "follow")
    graph.add_edge("u2", "u4", "follow")
    graph.add_edge("u2", "prod", "recom")
    graph.add_edge("u3", "prod", "recom")
    return graph


def make_pattern(name: str = "cache-Q", prefix: str = "") -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name=name)
    pattern.add_node(f"{prefix}x", "person")
    pattern.add_node(f"{prefix}y", "person")
    pattern.add_node(f"{prefix}p", "product")
    pattern.set_focus(f"{prefix}x")
    pattern.add_edge(f"{prefix}x", f"{prefix}y", "follow",
                     CountingQuantifier.at_least(1))
    pattern.add_edge(f"{prefix}y", f"{prefix}p", "recom")
    return pattern


def star_pattern(label: str, name: str) -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name=name)
    pattern.add_node("x", "person")
    pattern.add_node("y", "person")
    pattern.set_focus("x")
    pattern.add_edge("x", "y", label)
    return pattern


class TestPlanCache:
    def test_miss_compiles_then_hits(self):
        cache = PlanCache()
        graph = make_graph()
        pattern = make_pattern()
        form = canonicalize(pattern)
        first = cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern,
                               form=form)
        second = cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern,
                                form=form)
        assert second is first
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "compiles": 1, "evictions": 0,
        }
        assert len(cache) == 1

    def test_options_key_change_compiles_a_separate_program(self):
        cache = PlanCache()
        graph = make_graph()
        pattern = make_pattern()
        form = canonicalize(pattern)
        plan_a = cache.plan_for(graph, form.fingerprint, ("qmatch", "A"), pattern,
                                form=form)
        plan_b = cache.plan_for(graph, form.fingerprint, ("qmatch", "B"), pattern,
                                form=form)
        assert plan_a is not plan_b
        assert cache.stats.compiles == 2
        assert cache.stats.misses == 2

    def test_epoch_change_misses_without_recompiling(self):
        cache = PlanCache()
        graph = make_graph()
        pattern = make_pattern()
        form = canonicalize(pattern)
        plan = cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern,
                              form=form)
        stale_resolution = plan.resolution_for(graph)
        graph.add_edge("u3", "u4", "follow")  # bumps graph.version
        again = cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern,
                               form=form)
        # Same program, new entry: statistics changed, closures did not.
        assert again is plan
        assert cache.stats.misses == 2
        assert cache.stats.compiles == 1
        assert plan.resolution_for(graph) is not stale_resolution

    def test_respelled_pattern_hits_the_same_program(self):
        cache = PlanCache()
        graph = make_graph()
        original = make_pattern()
        respelled = make_pattern(name="cache-Q#ren", prefix="ren_")
        form = canonicalize(original)
        assert canonicalize(respelled).fingerprint == form.fingerprint
        plan = cache.plan_for(graph, form.fingerprint, ("qmatch",), original,
                              form=form)
        again = cache.plan_for(graph, form.fingerprint, ("qmatch",), respelled)
        assert again is plan
        assert cache.stats.compiles == 1

    def test_lru_eviction_is_counted_and_recovered_without_recompile(self):
        cache = PlanCache(capacity=1)
        graph = make_graph()
        follow = star_pattern("follow", "lru-follow")
        recom = star_pattern("recom", "lru-recom")
        follow_form, recom_form = canonicalize(follow), canonicalize(recom)
        plan = cache.plan_for(graph, follow_form.fingerprint, ("qmatch",), follow)
        cache.plan_for(graph, recom_form.fingerprint, ("qmatch",), recom)
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # The evicted fingerprint re-enters as a miss; with capacity 1 the
        # program registry also evicted it, so this one does recompile.
        again = cache.plan_for(graph, follow_form.fingerprint, ("qmatch",), follow)
        assert again is not plan
        assert again.fingerprint == plan.fingerprint

    def test_clear_forgets_programs(self):
        cache = PlanCache()
        graph = make_graph()
        pattern = make_pattern()
        form = canonicalize(pattern)
        cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern, form=form)
        cache.clear()
        cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern, form=form)
        assert cache.stats.compiles == 2

    def test_describe_payload(self):
        cache = PlanCache()
        graph = make_graph()
        pattern = make_pattern()
        form = canonicalize(pattern)
        cache.plan_for(graph, form.fingerprint, ("qmatch",), pattern, form=form)
        info = cache.describe()
        assert info["entries"] == 1
        assert info["hits"] == 0 and info["misses"] == 1
        assert form.fingerprint in info["programs"]
        assert info["programs"][form.fingerprint]["nodes"] == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestServicePlanCache:
    def test_first_evaluation_compiles_result_cache_hides_the_plan(self):
        graph = make_graph()
        with QueryService(graph, name="plans-service") as service:
            pattern = make_pattern()
            first = service.evaluate(pattern)
            assert not first.cached
            assert service.plans.stats.as_dict() == {
                "hits": 0, "misses": 1, "compiles": 1, "evictions": 0,
            }
            # A result-cache hit never consults the plan cache at all.
            second = service.evaluate(pattern)
            assert second.cached
            assert service.plans.stats.hits == 0
            # A result-cache miss on the same fingerprint hits the warm plan.
            service.cache.clear()
            third = service.evaluate(pattern)
            assert not third.cached
            assert third.answer == first.answer
            assert service.plans.stats.hits == 1
            assert service.plans.stats.compiles == 1

    def test_graph_mutation_rebinds_the_plan_without_recompiling(self):
        graph = make_graph()
        with QueryService(graph, name="plans-epoch") as service:
            pattern = make_pattern()
            service.evaluate(pattern)
            assert service.plans.stats.compiles == 1
            graph.add_edge("u4", "u1", "follow")
            service.evaluate(pattern)
            assert service.plans.stats.misses == 2
            assert service.plans.stats.compiles == 1

    def test_unique_fingerprints_compile_exactly_once(self):
        graph = make_graph()
        uniques = [make_pattern(), star_pattern("follow", "S1"),
                   star_pattern("recom", "S2")]
        respelled = make_pattern(name="cache-Q#ren", prefix="ren_")
        before = plan_compile_count()
        with QueryService(graph, name="plans-once") as service:
            for _ in range(3):
                for pattern in uniques + [respelled]:
                    service.evaluate(pattern)
                service.cache.clear()
            assert service.plans.stats.compiles == len(uniques)
        assert plan_compile_count() - before == len(uniques)

    def test_stats_snapshot_and_introspect_surface_plans(self):
        graph = make_graph()
        with QueryService(graph, name="plans-stats") as service:
            service.evaluate(make_pattern())
            snapshot = service.stats_snapshot()
            assert snapshot["plan_misses"] == 1
            assert snapshot["plan_compiles"] == 1
            intro = service.introspect()
            assert intro["plans"]["entries"] == 1
            programs = intro["plans"]["programs"]
            (info,) = programs.values()
            assert info["order"].count(">") == 2

    def test_use_plans_false_disables_the_plan_cache(self):
        graph = make_graph()
        pattern = make_pattern()
        with QueryService(graph, name="plans-off", use_plans=False) as off, \
             QueryService(graph, name="plans-on") as on:
            assert off.evaluate(pattern).answer == on.evaluate(pattern).answer
            assert off.plans.stats.as_dict() == {
                "hits": 0, "misses": 0, "compiles": 0, "evictions": 0,
            }

    def test_opaque_engine_disables_plans(self):
        class OpaqueEngine:
            name = "opaque"

            def evaluate(self, pattern, graph, focus_restriction=None):
                return QMatch().evaluate(
                    pattern, graph, focus_restriction=focus_restriction
                )

        graph = make_graph()
        coordinator = PQMatch(num_workers=2, d=2, engine=OpaqueEngine())
        with QueryService(graph, coordinator, name="plans-opaque") as service:
            result = service.evaluate(make_pattern())
            assert service.plans.stats.misses == 0
            assert result.answer == QMatch().evaluate_answer(make_pattern(), graph)


class TestWorkerPlanCache:
    def test_worker_cache_is_a_process_singleton(self):
        from repro.plan import reset_worker_plan_cache

        reset_worker_plan_cache()
        cache = worker_plan_cache()
        assert worker_plan_cache() is cache
        reset_worker_plan_cache()
        assert worker_plan_cache() is not cache

    def test_process_pool_workers_compile_once_and_never_rebuild(self):
        graph = make_graph()
        patterns = [make_pattern(), star_pattern("follow", "P1")]
        coordinator = PQMatch(num_workers=2, d=2, engine=QMatch(),
                              executor="process")
        with QueryService(graph, coordinator, name="plans-pool") as service:
            baseline = {
                pattern.name: QMatch().evaluate_answer(pattern, graph)
                for pattern in patterns
            }
            rounds = []
            for _ in range(3):
                service.cache.clear()
                rounds.append(service.evaluate_many(patterns))
            for result, pattern in zip(rounds[0], patterns):
                assert set(result.answer) == baseline[pattern.name]
            for later in rounds[1:]:
                assert [r.answer for r in later] == [r.answer for r in rounds[0]]

            executor = coordinator.executor
            workers, uniques = coordinator.num_workers, len(patterns)
            fragments = service.introspect()["pool"]["fragments"]
            tasks = len(rounds) * uniques * fragments
            assert service.worker_rebuilds == 0
            # A worker plan-cache hit needs the same (worker process, fragment
            # graph, fingerprint) as an earlier task, and which worker takes a
            # task is the OS's choice — so no particular round is "all hits".
            # What holds under every schedule: each task is a hit or a new
            # key, and there are only workers × fragments × uniques keys.
            assert fragments == 2
            assert (
                executor.last_worker_plan_hits + executor.last_worker_plan_misses
                == tasks
            )
            assert executor.last_worker_plan_hits >= tasks - workers * fragments * uniques
            # A worker that serves several fragments misses once per fragment
            # graph but compiles each program only once (program reuse).
            assert 0 < executor.last_worker_plan_compiles <= workers * uniques
            assert executor.last_worker_plan_misses >= executor.last_worker_plan_compiles

            pool_intro = service.introspect()["pool"]
            assert pool_intro["worker_plan_hits"] == executor.last_worker_plan_hits
            assert pool_intro["worker_plan_compiles"] == (
                executor.last_worker_plan_compiles
            )
