"""Tests for the generic subgraph-isomorphism engine (procedure Match)."""

from __future__ import annotations

import pytest

from repro.graph import PropertyGraph
from repro.matching import (
    count_isomorphisms,
    exists_isomorphism,
    find_isomorphisms,
    label_candidates,
)
from repro.patterns import PatternBuilder, QuantifiedGraphPattern
from repro.utils import MatchingError, WorkCounter


def path_pattern():
    return (
        PatternBuilder("path")
        .focus("a", "person")
        .node("b", "person")
        .node("p", "product")
        .edge("a", "b", "follow")
        .edge("b", "p", "recom")
        .build()
    )


@pytest.fixture
def small_social() -> PropertyGraph:
    graph = PropertyGraph("social")
    for person in ("u1", "u2", "u3"):
        graph.add_node(person, "person")
    graph.add_node("prod", "product")
    graph.add_edge("u1", "u2", "follow")
    graph.add_edge("u1", "u3", "follow")
    graph.add_edge("u2", "prod", "recom")
    graph.add_edge("u3", "prod", "recom")
    return graph


class TestEnumeration:
    def test_all_isomorphisms_found(self, small_social):
        pattern = path_pattern()
        assignments = list(find_isomorphisms(pattern, small_social))
        assert len(assignments) == 2
        assert {a["b"] for a in assignments} == {"u2", "u3"}
        for assignment in assignments:
            assert assignment["a"] == "u1"
            assert assignment["p"] == "prod"

    def test_labels_must_match(self, small_social):
        pattern = (
            PatternBuilder()
            .focus("a", "robot")
            .node("b", "person")
            .edge("a", "b", "follow")
            .build()
        )
        assert list(find_isomorphisms(pattern, small_social)) == []

    def test_edge_labels_must_match(self, small_social):
        pattern = (
            PatternBuilder()
            .focus("a", "person")
            .node("b", "person")
            .edge("a", "b", "likes")
            .build()
        )
        assert not exists_isomorphism(pattern, small_social)

    def test_injectivity(self, triangle_graph):
        # A 2-node pattern with edges both ways requires two distinct nodes.
        pattern = (
            PatternBuilder()
            .focus("u", "N")
            .node("v", "N")
            .edge("u", "v", "e")
            .edge("v", "u", "e")
            .build()
        )
        assignments = list(find_isomorphisms(pattern, triangle_graph))
        assert assignments == []  # the triangle has no 2-cycle

    def test_cycle_pattern_on_triangle(self, triangle_graph):
        pattern = (
            PatternBuilder()
            .focus("u1", "N")
            .node("u2", "N")
            .node("u3", "N")
            .edge("u1", "u2", "e")
            .edge("u2", "u3", "e")
            .edge("u3", "u1", "e")
            .build()
        )
        assert count_isomorphisms(pattern, triangle_graph) == 3  # three rotations

    def test_empty_pattern_rejected(self, small_social):
        with pytest.raises(MatchingError):
            list(find_isomorphisms(QuantifiedGraphPattern(), small_social))


class TestAnchorsAndLimits:
    def test_anchor_restricts_search(self, small_social):
        pattern = path_pattern()
        anchored = list(find_isomorphisms(pattern, small_social, anchor={"b": "u2"}))
        assert len(anchored) == 1
        assert anchored[0]["b"] == "u2"

    def test_inconsistent_anchor_yields_nothing(self, small_social):
        pattern = path_pattern()
        assert list(find_isomorphisms(pattern, small_social, anchor={"a": "u2"})) == []
        # u2 follows nobody, so anchoring the focus there cannot extend.

    def test_anchor_on_unknown_pattern_node(self, small_social):
        with pytest.raises(MatchingError):
            list(find_isomorphisms(path_pattern(), small_social, anchor={"ghost": "u1"}))

    def test_anchor_violating_injectivity(self, small_social):
        pattern = path_pattern()
        assert (
            list(
                find_isomorphisms(
                    pattern, small_social, anchor={"a": "u1", "b": "u1"}
                )
            )
            == []
        )

    def test_limit_stops_enumeration(self, small_social):
        pattern = path_pattern()
        assert len(list(find_isomorphisms(pattern, small_social, limit=1))) == 1

    def test_exists_isomorphism(self, small_social):
        assert exists_isomorphism(path_pattern(), small_social)
        assert not exists_isomorphism(path_pattern(), PropertyGraph())


class TestCandidatesAndCounters:
    def test_label_candidates(self, small_social):
        candidates = label_candidates(path_pattern(), small_social)
        assert candidates["a"] == {"u1", "u2", "u3"}
        assert candidates["p"] == {"prod"}

    def test_explicit_candidates_restrict_search(self, small_social):
        pattern = path_pattern()
        candidates = label_candidates(pattern, small_social)
        candidates["b"] = {"u2"}
        assignments = list(find_isomorphisms(pattern, small_social, candidates=candidates))
        assert {a["b"] for a in assignments} == {"u2"}

    def test_counter_records_extensions(self, small_social):
        counter = WorkCounter()
        list(find_isomorphisms(path_pattern(), small_social, counter=counter))
        assert counter.extensions > 0


class TestLabelCandidateAliasing:
    """Aliasing audit for ``label_candidates`` (the ``nodes_with_label`` bug
    class from the index layer: handing out a set someone else also holds).
    """

    def test_clearing_returned_pools_leaves_graph_and_future_calls_intact(
        self, small_social
    ):
        pattern = path_pattern()
        for pool in label_candidates(pattern, small_social).values():
            pool.clear()
        assert small_social.nodes_with_label("person") == {"u1", "u2", "u3"}
        fresh = label_candidates(pattern, small_social)
        assert fresh["a"] == {"u1", "u2", "u3"}
        assert fresh["p"] == {"prod"}
        small_social.validate()

    def test_same_label_pattern_nodes_get_independent_pools(self, small_social):
        candidates = label_candidates(path_pattern(), small_social)
        assert candidates["a"] == candidates["b"]
        assert candidates["a"] is not candidates["b"]
        candidates["a"].discard("u1")
        assert "u1" in candidates["b"]

    def test_memoizing_graph_cannot_leak_its_internal_set(self):
        # A graph that memoises label lookups (or returns a frozenset) must
        # still yield one independent *mutable* pool per pattern node.
        class SharingGraph:
            def __init__(self):
                self.shared = {"u1", "u2", "u3", "prod"}

            def nodes_with_label(self, label):
                return self.shared  # the same object, every call

        graph = SharingGraph()
        candidates = label_candidates(path_pattern(), graph)
        pools = list(candidates.values())
        assert all(pools[0] is not pool for pool in pools[1:])
        assert all(pool is not graph.shared for pool in pools)
        candidates["a"].clear()
        assert candidates["b"] == graph.shared
        assert graph.shared == {"u1", "u2", "u3", "prod"}

        class FrozenGraph:
            def nodes_with_label(self, label):
                return frozenset({"u1"})

        frozen = label_candidates(path_pattern(), FrozenGraph())
        frozen["a"].add("u2")  # pools must be mutable sets
        assert frozen["b"] == {"u1"}
