"""Compatibility of the migrated counters with their historical readers.

The old module-global counters (``_BUILD_CALLS`` / ``_REFRESH_CALLS`` /
``_REFRESH_REBUILDS``) now live on the always-on :data:`repro.obs.metrics.
CORE` slots, with the original reader functions preserved as thin views.
These tests pin the migration: the readers track CORE exactly, the autouse
fixture gives every test a zeroed slate (the counter-leak footgun the
globals had is gone), and CORE itself resets and stays slotted.
"""

from __future__ import annotations

import pytest

from repro.datasets import benchmark_graph
from repro.delta import GraphDelta, apply_delta, refreshed_index
from repro.delta.refresh import refresh_call_count, refresh_rebuild_count
from repro.index import GraphIndex, build_call_count
from repro.obs.metrics import CORE


def _small_graph():
    return benchmark_graph("pokec", scale=0.3, seed=11)


class TestCoreCompatReaders:
    def test_every_test_starts_from_zero(self):
        # the autouse fixture resets CORE: no traffic from other tests leaks in
        assert CORE.as_dict() == {
            "index_builds": 0,
            "index_refreshes": 0,
            "index_refresh_rebuilds": 0,
        }
        assert build_call_count() == 0
        assert refresh_call_count() == 0
        assert refresh_rebuild_count() == 0

    def test_build_call_count_reads_core(self):
        graph = _small_graph()
        before = build_call_count()
        GraphIndex.build(graph)
        assert build_call_count() == before + 1
        assert build_call_count() == CORE.index_builds

    def test_refresh_readers_track_patch_and_fallback(self):
        graph = _small_graph()
        index = GraphIndex.build(graph)

        node = next(iter(graph.nodes()))
        small = GraphDelta(
            node_inserts=(("compat-probe", "person", ()),),
            edge_inserts=((node, "compat-probe", "follow"),),
        )
        apply_delta(graph, small)
        index = refreshed_index(index, small)
        assert refresh_call_count() == 1

        # a batch touching everything forces the rebuild fallback
        wipe = GraphDelta(node_deletes=tuple(graph.nodes()))
        apply_delta(graph, wipe)
        refreshed_index(index, wipe)
        assert refresh_call_count() == 2
        assert refresh_rebuild_count() == 1
        assert (refresh_call_count(), refresh_rebuild_count()) == (
            CORE.index_refreshes,
            CORE.index_refresh_rebuilds,
        )


class TestCoreCounters:
    def test_reset_and_slots(self):
        CORE.index_builds += 3
        CORE.index_refresh_rebuilds += 1
        assert CORE.as_dict()["index_builds"] == 3
        CORE.reset()
        assert CORE.as_dict() == {
            "index_builds": 0,
            "index_refreshes": 0,
            "index_refresh_rebuilds": 0,
        }
        with pytest.raises(AttributeError):
            CORE.some_new_counter = 1  # slotted on purpose
