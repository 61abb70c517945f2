"""Tests for candidate filtering (FilterCandidate) and its pruning rules."""

from __future__ import annotations

import pytest

from repro.graph import PropertyGraph
from repro.matching import (
    DMatchOptions,
    EnumMatcher,
    QMatch,
    build_candidate_index,
    label_candidates,
)
from repro.patterns import PatternBuilder
from repro.utils import WorkCounter

from fixtures import build_q3


class TestCandidateIndex:
    def test_example5_upper_bound_pruning(self, paper_g1, pattern_q3):
        """Example 5 of the paper: x1 is removed from C(xo) because U(x1, e) = 1 < 2."""
        positive = pattern_q3.pi()
        index = build_candidate_index(positive, paper_g1, use_simulation=False)
        assert "x1" not in index.candidate_set("xo")
        assert index.candidate_set("xo") == {"x2", "x3"}
        assert index.pruned >= 1

    def test_bounds_count_the_live_pool(self, paper_g1):
        # U counts the followees still in C(z1) = the four recommenders
        # v0..v3: x3 follows v2, v3 and v4, and v4 only gives a bad rating,
        # so x2 and x3 both count two and both survive p = 2.  At p = 3 a
        # count by label would keep x3 (three followees); the live count
        # prunes it, and x2 with it.
        index = build_candidate_index(build_q3(p=2).pi(), paper_g1, use_simulation=False)
        assert index.candidate_set("z1") == {"v0", "v1", "v2", "v3"}
        assert index.candidate_set("xo") == {"x2", "x3"}
        stricter = build_candidate_index(build_q3(p=3).pi(), paper_g1, use_simulation=False)
        assert stricter.candidate_set("z1") == {"v0", "v1", "v2", "v3"}
        assert stricter.candidate_set("xo") == set()
        assert stricter.pruned == index.pruned + 2

    def test_bound_counts_the_live_pool_to_a_fixpoint(self):
        # xo needs two followees that recommend a product.  b's two followees
        # are both persons, so the label count gives U(b) = 2 and keeps b; but
        # g2 recommends nothing and leaves C(z) in the first pass, so the
        # second pass counts U(b) = 1 against the live pool and drops b.
        graph = PropertyGraph("fixpoint")
        for person in ("a", "b", "f1", "f2", "f3", "g1", "g2"):
            graph.add_node(person, "person")
        graph.add_node("item", "product")
        for source, target in (("a", "f1"), ("a", "f2"), ("a", "f3"),
                               ("b", "g1"), ("b", "g2")):
            graph.add_edge(source, target, "follow")
        for recommender in ("f1", "f2", "g1"):
            graph.add_edge(recommender, "item", "recom")
        pattern = (
            PatternBuilder("two-recommending-followees")
            .focus("xo", "person")
            .node("z", "person")
            .node("y", "product")
            .edge("xo", "z", "follow", at_least=2)
            .edge("z", "y", "recom")
            .build()
        )
        index = build_candidate_index(pattern, graph, use_simulation=False)
        assert index.candidate_set("xo") == {"a"}
        assert index.candidate_set("z") == {"f1", "f2", "g1"}
        # First pass: five persons with fewer than two followees leave C(xo),
        # four that recommend nothing leave C(z); second pass: b.
        assert index.pruned == 5 + 4 + 1
        # With simulation, dropping b also takes g1, whose only follower is b.
        index = build_candidate_index(pattern, graph, use_simulation=True)
        assert index.candidate_set("xo") == {"a"}
        assert index.candidate_set("z") == {"f1", "f2"}
        assert EnumMatcher().evaluate_answer(pattern, graph) == {"a"}

    def test_a_count_below_the_focus_drops_only_childless_candidates(self):
        # vx follows v1 and v2 (>= 2 below the focus: each followee needs two
        # recommended items).  v2 recommends one item, so it can never be the
        # witness's y; but the isomorphism (vx, v2, c3) still puts v2 among
        # vx's followees, and the semantics count Me over every isomorphism
        # of the pattern.  Dropping v2 from C(y) would cost vx its second
        # followee, so only the focus's own bounds prune by count.
        graph = PropertyGraph("count-below-focus")
        graph.add_node("vx", "A")
        for node in ("v1", "v2"):
            graph.add_node(node, "B")
            graph.add_edge("vx", node, "follow")
        for item in ("c1", "c2", "c3"):
            graph.add_node(item, "C")
        for source, item in (("v1", "c1"), ("v1", "c2"), ("v2", "c3")):
            graph.add_edge(source, item, "recom")
        pattern = (
            PatternBuilder("two-deep-counts")
            .focus("x", "A")
            .node("y", "B")
            .node("z", "C")
            .edge("x", "y", "follow", at_least=2)
            .edge("y", "z", "recom", at_least=2)
            .build()
        )
        for use_simulation in (True, False):
            index = build_candidate_index(pattern, graph, use_simulation=use_simulation)
            # v2's one recommended item (c3) stays with it.
            assert index.candidate_set("y") == {"v1", "v2"}
            assert index.candidate_set("z") == {"c1", "c2", "c3"}
            assert index.pruned == 0
        assert EnumMatcher().evaluate_answer(pattern, graph) == {"vx"}
        for options in (DMatchOptions(), DMatchOptions(use_simulation=False, early_exit=False)):
            assert QMatch(options=options).evaluate_answer(pattern, graph) == {"vx"}

    def test_simulation_filter_is_tighter(self, small_pokec, dataset_q1):
        positive = dataset_q1.pi()
        with_simulation = build_candidate_index(positive, small_pokec, use_simulation=True)
        without = build_candidate_index(positive, small_pokec, use_simulation=False)
        for node in positive.nodes():
            assert with_simulation.candidate_set(node) <= without.candidate_set(node)

    def test_filters_never_drop_true_matches(self, paper_g1, pattern_q2):
        """Soundness: candidates of the focus always contain the real answer."""
        answer = EnumMatcher().evaluate_answer(pattern_q2, paper_g1)
        for use_simulation in (True, False):
            index = build_candidate_index(pattern_q2, paper_g1, use_simulation=use_simulation)
            assert answer <= index.candidate_set("xo")

    def test_is_empty(self, paper_g1):
        pattern = (
            PatternBuilder()
            .focus("x", "person")
            .node("m", "missing_label")
            .edge("x", "m", "follow")
            .build()
        )
        index = build_candidate_index(pattern, paper_g1, use_simulation=False)
        assert index.is_empty()

    def test_counter_accumulates_pruned(self, paper_g1, pattern_q3):
        counter = WorkCounter()
        build_candidate_index(pattern_q3.pi(), paper_g1, use_simulation=False, counter=counter)
        assert counter.candidates_pruned >= 1


class TestGlobalPruneCheck:
    def test_lemma12_failure_when_too_few_candidates(self, paper_g1):
        """With p = 4, C(z1) has only 3 recommenders left: no match can exist."""
        positive = build_q3(p=4).pi()
        index = build_candidate_index(positive, paper_g1, use_simulation=False)
        assert not index.global_prune_check()
        # And indeed the answer is empty.
        assert EnumMatcher().evaluate_answer(build_q3(p=4), paper_g1) == set()

    def test_lemma12_passes_when_enough_candidates(self, paper_g1):
        positive = build_q3(p=2).pi()
        index = build_candidate_index(positive, paper_g1, use_simulation=False)
        assert index.global_prune_check()


class TestLabelCandidates:
    def test_label_candidates_baseline(self, paper_g1, pattern_q2):
        candidates = label_candidates(pattern_q2, paper_g1)
        assert candidates["redmi"] == {"redmi"}
        assert len(candidates["xo"]) == 8
