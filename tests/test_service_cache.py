"""The version-aware LRU result cache (:mod:`repro.service.cache`).

The invalidation contract mirrors the index layer's staleness discipline:
structural mutations (which bump ``PropertyGraph.version``) make entries
unreachable, attribute-only updates (which do not) keep them live.
"""

from __future__ import annotations

import pytest

from repro.graph import PropertyGraph
from repro.service import cache as cache_module
from repro.service.cache import ResultCache
from repro.utils.errors import ReproError


def _graph(name="g"):
    graph = PropertyGraph(name)
    graph.add_node("a", "person")
    graph.add_node("b", "person")
    graph.add_edge("a", "b", "follow")
    return graph


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        assert cache.lookup(graph, "fp1") is None
        stored = cache.store(graph, "fp1", {"a", "b"})
        assert stored == frozenset({"a", "b"})
        hit = cache.lookup(graph, "fp1")
        assert hit == frozenset({"a", "b"})
        assert isinstance(hit, frozenset)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_empty_answers_are_cached_too(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp-empty", set())
        assert cache.lookup(graph, "fp-empty") == frozenset()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            ResultCache(capacity=0)

    def test_distinct_fingerprints_do_not_alias(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp1", {"a"})
        cache.store(graph, "fp2", {"b"})
        assert cache.lookup(graph, "fp1") == frozenset({"a"})
        assert cache.lookup(graph, "fp2") == frozenset({"b"})

    def test_distinct_graphs_do_not_alias(self):
        cache = ResultCache(capacity=4)
        one, two = _graph("one"), _graph("two")
        cache.store(one, "fp", {"a"})
        assert cache.lookup(two, "fp") is None
        assert cache.lookup(one, "fp") == frozenset({"a"})

    def test_options_key_partitions_entries(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp", {"a"}, options_key=("qmatch", True))
        assert cache.lookup(graph, "fp", options_key=("qmatch", False)) is None
        assert cache.lookup(graph, "fp", options_key=("qmatch", True)) == frozenset({"a"})


class TestLRU:
    def test_eviction_beyond_capacity(self):
        cache = ResultCache(capacity=2)
        graph = _graph()
        cache.store(graph, "fp1", {"a"})
        cache.store(graph, "fp2", {"b"})
        cache.store(graph, "fp3", {"a", "b"})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(graph, "fp1") is None  # oldest evicted
        assert cache.lookup(graph, "fp3") is not None

    def test_hit_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        graph = _graph()
        cache.store(graph, "fp1", {"a"})
        cache.store(graph, "fp2", {"b"})
        assert cache.lookup(graph, "fp1") is not None  # fp1 now most recent
        cache.store(graph, "fp3", {"a"})
        assert cache.lookup(graph, "fp2") is None  # fp2 was least recent
        assert cache.lookup(graph, "fp1") is not None

    def test_clear_keeps_counters(self):
        cache = ResultCache(capacity=2)
        graph = _graph()
        cache.store(graph, "fp1", {"a"})
        cache.lookup(graph, "fp1")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1 and cache.stats.insertions == 1


class TestVersionInvalidation:
    def test_structural_mutation_invalidates(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp", {"a"})
        graph.add_edge("b", "a", "follow")  # bumps graph.version
        assert cache.lookup(graph, "fp") is None

    def test_node_removal_invalidates(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp", {"a"})
        graph.remove_edge("a", "b", "follow")
        assert cache.lookup(graph, "fp") is None

    def test_attribute_update_does_not_invalidate(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp", {"a"})
        graph.set_node_attr("a", "city", "Edinburgh")
        assert cache.lookup(graph, "fp") == frozenset({"a"})

    def test_fresh_entry_after_mutation(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        cache.store(graph, "fp", {"a"})
        graph.add_node("c", "person")
        cache.store(graph, "fp", {"a", "c"})
        assert cache.lookup(graph, "fp") == frozenset({"a", "c"})

    def test_pinned_version_files_under_lookup_time_version(self):
        """An answer computed against version V must land under V even when
        the graph mutates before store() runs — never under the new version."""
        cache = ResultCache(capacity=4)
        graph = _graph()
        observed = graph.version
        graph.add_node("c", "person")  # mutation interleaves with computation
        cache.store(graph, "fp", {"a"}, version=observed)
        assert cache.lookup(graph, "fp") is None  # current version: no entry
        assert cache.lookup(graph, "fp", version=observed) == frozenset({"a"})


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        graph = _graph()
        assert cache.stats.hit_rate == 1.0  # untouched cache, by convention
        cache.lookup(graph, "fp")
        cache.store(graph, "fp", {"a"})
        cache.lookup(graph, "fp")
        assert cache.stats.hit_rate == 0.5
        payload = cache.stats.as_dict()
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert "repr" not in payload  # flat numeric dict only

    def test_repr_is_informative(self):
        cache = ResultCache(capacity=4)
        text = repr(cache)
        assert "ResultCache" in text and "0/4" in text


class TestPurgeStale:
    def test_purge_drops_superseded_versions_only(self):
        cache = ResultCache(capacity=8)
        graph = _graph()
        cache.store(graph, "old", {"a"})
        graph.add_node("c", "person")  # structural bump: "old" is now stale
        cache.store(graph, "new", {"b"})
        assert cache.purge_stale() == 1
        assert cache.stats.purged == 1
        assert cache.lookup(graph, "new") == frozenset({"b"})

    def test_store_sweeps_automatically_past_the_interval(self):
        cache = ResultCache(capacity=64, purge_interval=3)
        graph = _graph()
        cache.store(graph, "stale", {"a"})
        graph.add_node("c", "person")
        for position in range(3):  # the third insert crosses the interval
            cache.store(graph, f"fp{position}", {"a"})
        assert cache.stats.purged == 1

    def test_stale_entries_do_not_pin_their_graph(self):
        """The satellite regression: a mutated-and-forgotten graph must not
        stay alive behind unreachable cache entries."""
        import gc
        import weakref

        cache = ResultCache(capacity=64, purge_interval=2)
        graph = _graph("pinned")
        ref = weakref.ref(graph)
        cache.store(graph, "entry", {"a"})
        graph.add_node("c", "person")  # entry now stale, but still pins graph
        keeper = _graph("keeper")
        del graph
        gc.collect()
        assert ref() is not None, "precondition: the stale entry pins the graph"
        cache.store(keeper, "k1", {"a"})
        cache.store(keeper, "k2", {"a"})  # crosses purge_interval: sweep runs
        gc.collect()
        assert ref() is None, "purge_stale must release the mutated graph"

    def test_purge_interval_validation(self):
        with pytest.raises(ReproError):
            ResultCache(capacity=4, purge_interval=0)


class TestCarryForward:
    def test_carry_forward_moves_entries_atomically(self):
        cache = ResultCache(capacity=8)
        graph = _graph()
        old_version = graph.version
        cache.store(graph, "fp", {"a"})
        graph.add_node("c", "person")
        carried = cache.carry_forward(
            graph, [("fp", None)], old_version, graph.version
        )
        assert carried == 1
        assert cache.stats.migrated == 1
        assert cache.lookup(graph, "fp") == frozenset({"a"})
        assert cache.lookup(graph, "fp", version=old_version) is None

    def test_carry_forward_ignores_unknown_fingerprints(self):
        cache = ResultCache(capacity=8)
        graph = _graph()
        assert cache.carry_forward(graph, [("ghost", None)], 0, 1) == 0

    def test_fingerprints_for_lists_only_the_requested_version(self):
        cache = ResultCache(capacity=8)
        graph = _graph()
        first_version = graph.version
        cache.store(graph, "fp1", {"a"})
        graph.add_node("c", "person")
        cache.store(graph, "fp2", {"b"})
        assert cache.fingerprints_for(graph, first_version) == (("fp1", None),)
        assert cache.fingerprints_for(graph, graph.version) == (("fp2", None),)


class TestSharedAnswers:
    """Equal answers are handed out as one frozenset, remembered by content
    for the last ``SHARED_ANSWERS`` distinct answers."""

    def test_equal_answers_share_one_object(self):
        cache = ResultCache(capacity=8)
        graph = _graph()
        first = cache.store(graph, "fp1", {"a", "b"})
        second = cache.store(graph, "fp2", ["b", "a"])
        assert second is first
        assert cache.lookup(graph, "fp2") is first
        assert cache.store(graph, "fp3", {"a"}) is not first

    def test_an_evicted_answer_stored_again_is_the_same_object(self):
        # A shared store re-promotes answers the small L1 evicted.
        cache = ResultCache(capacity=1)
        graph = _graph()
        first = cache.store(graph, "fp1", {"a"})
        cache.store(graph, "fp2", {"b"})
        assert cache.lookup(graph, "fp1") is None
        assert cache.store(graph, "fp1", {"a"}) is first

    def test_remembered_answers_are_bounded(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SHARED_ANSWERS", 2)
        cache = ResultCache(capacity=8)
        graph = _graph()
        first = cache.store(graph, "fp1", {"a"})
        cache.store(graph, "fp2", {"b"})
        assert cache.store(graph, "fp3", {"a"}) is first  # refreshes {"a"}
        cache.store(graph, "fp4", {"c"})                   # forgets {"b"}
        assert len(cache._shared) == 2
        assert cache.store(graph, "fp5", {"a"}) is first
        cache.clear()
        assert not cache._shared
        assert cache.store(graph, "fp6", {"a"}) is not first
