"""Tests for plan compilation: lowered quantifiers, canonical shape, resolutions.

The load-bearing property is that :func:`repro.plan.lower_quantifier` is an
*exact* drop-in for :meth:`CountingQuantifier.check` on the non-negative
inputs the engines produce — including the ratio epsilons and the
``total == 0`` rule — because the compiled execution path swaps one for the
other inside the verification loop and the byte-identity contract rides on it.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import GraphDelta, apply_delta
from repro.graph import PropertyGraph
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import compile_plan, lower_quantifier, plan_compile_count
from repro.service.patterns import canonicalize


def quantifier_grid():
    """A grid covering every constructor and both ratio/numeric branches."""
    return [
        CountingQuantifier.existential(),
        CountingQuantifier.universal(),
        CountingQuantifier.negation(),
        CountingQuantifier.at_least(1),
        CountingQuantifier.at_least(3),
        CountingQuantifier.exactly(0),
        CountingQuantifier.exactly(2),
        CountingQuantifier.more_than(1),
        CountingQuantifier.more_than(2),
        CountingQuantifier.ratio_at_least(25.0),
        CountingQuantifier.ratio_at_least(50.0),
        CountingQuantifier.ratio_at_least(100.0),
        CountingQuantifier.ratio_exactly(50.0),
        CountingQuantifier.ratio_exactly(100.0),
    ]


def sample_pattern(suffix: str = "") -> QuantifiedGraphPattern:
    """Focus + two quantified branches + a product leaf (one of each check)."""
    pattern = QuantifiedGraphPattern(name=f"plan-sample{suffix}")
    pattern.add_node(f"x{suffix}", "person")
    pattern.add_node(f"y{suffix}", "person")
    pattern.add_node(f"z{suffix}", "person")
    pattern.add_node(f"p{suffix}", "product")
    pattern.set_focus(f"x{suffix}")
    pattern.add_edge(f"x{suffix}", f"y{suffix}", "follow", CountingQuantifier.at_least(2))
    pattern.add_edge(
        f"x{suffix}", f"z{suffix}", "follow", CountingQuantifier.ratio_at_least(50.0)
    )
    pattern.add_edge(f"y{suffix}", f"p{suffix}", "recom")
    return pattern


def small_graph() -> PropertyGraph:
    graph = PropertyGraph("plan-small")
    for person in ("a", "b", "c", "d"):
        graph.add_node(person, "person")
    graph.add_node("prod", "product")
    graph.add_edge("a", "b", "follow")
    graph.add_edge("a", "c", "follow")
    graph.add_edge("b", "prod", "recom")
    graph.add_edge("c", "prod", "recom")
    return graph


class TestLowerQuantifier:
    def test_grid_matches_check_exactly(self):
        for quantifier in quantifier_grid():
            lowered = lower_quantifier(quantifier)
            for total in range(7):
                for count in range(total + 1):
                    assert lowered(count, total) == quantifier.check(count, total), (
                        f"{quantifier.describe()} diverged on ({count}, {total})"
                    )

    def test_ratio_with_zero_total_is_false(self):
        for quantifier in quantifier_grid():
            if quantifier.is_ratio:
                assert lower_quantifier(quantifier)(0, 0) is False

    def test_ratio_epsilon_boundaries(self):
        # 1/3 of 100% is not representable exactly; the epsilon must make the
        # "exactly the threshold" case pass, same as CountingQuantifier.check.
        third = CountingQuantifier.ratio_at_least(100.0 / 3.0)
        assert lower_quantifier(third)(1, 3) == third.check(1, 3) is True
        half = CountingQuantifier.ratio_exactly(50.0)
        assert lower_quantifier(half)(1, 2) is True
        assert lower_quantifier(half)(1, 3) is False
        assert lower_quantifier(half)(2, 3) is False

    @given(
        kind=st.sampled_from(["at_least", "exactly", "more_than", "ratio_at_least",
                              "ratio_exactly"]),
        value=st.integers(min_value=0, max_value=5),
        count=st.integers(min_value=0, max_value=8),
        total=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_lowering_matches_check_property(self, kind, value, count, total):
        if kind == "at_least":
            quantifier = CountingQuantifier.at_least(max(value, 1))
        elif kind == "exactly":
            quantifier = CountingQuantifier.exactly(value)
        elif kind == "more_than":
            quantifier = CountingQuantifier.more_than(max(value, 1))
        elif kind == "ratio_at_least":
            quantifier = CountingQuantifier.ratio_at_least(float(value) * 20.0 or 20.0)
        else:
            quantifier = CountingQuantifier.ratio_exactly(float(value) * 20.0 or 20.0)
        assert lower_quantifier(quantifier)(count, total) == quantifier.check(
            count, total
        )


class TestCompilePlan:
    def test_canonical_shape(self):
        pattern = sample_pattern()
        form = canonicalize(pattern)
        plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
        assert plan.fingerprint == form.fingerprint
        assert len(plan.node_labels) == len(list(pattern.nodes()))
        assert plan.node_labels[plan.focus_position] == "person"
        assert plan.focus_position == form.order[pattern.focus]
        # Edges are stored on canonical positions, sorted by endpoints+label.
        assert [edge[:3] for edge in plan.edges] == sorted(
            edge[:3] for edge in plan.edges
        )
        assert len(plan.edges) == len(pattern.edges())

    def test_respelled_pattern_compiles_to_identical_shape(self):
        original = compile_plan(sample_pattern())
        respelled = compile_plan(sample_pattern(suffix="_r"))
        assert original.fingerprint == respelled.fingerprint
        assert original.node_labels == respelled.node_labels
        assert original.focus_position == respelled.focus_position
        assert [edge[:3] for edge in original.edges] == [
            edge[:3] for edge in respelled.edges
        ]

    def test_check_for_is_memoised(self):
        plan = compile_plan(sample_pattern())
        quantifier = CountingQuantifier.ratio_at_least(50.0)
        assert plan.check_for(quantifier) is plan.check_for(quantifier)
        # Existential is pre-lowered because positification rewrites negated
        # edges to it; asking for it must never build a new closure.
        existential = CountingQuantifier.existential()
        assert plan.check_for(existential) is plan.check_for(existential)

    def test_edge_specs_lowered_and_memoised(self):
        pattern = sample_pattern()
        plan = compile_plan(pattern)
        edges = pattern.edges()
        specs = plan.edge_specs(edges)
        assert specs is plan.edge_specs(edges)
        assert len(specs) == len(edges)
        for (source, label, check), edge in zip(specs, edges):
            assert source == edge.source
            assert label == edge.label
            assert check(5, 5) == edge.quantifier.check(5, 5)

    def test_compile_count_increments_per_compile(self):
        before = plan_compile_count()
        compile_plan(sample_pattern())
        compile_plan(sample_pattern())
        assert plan_compile_count() == before + 2

    def test_describe_payload(self):
        plan = compile_plan(sample_pattern())
        info = plan.describe()
        assert info["fingerprint"] == plan.fingerprint
        assert info["nodes"] == 4
        assert info["edges"] == 3
        assert info["focus"].endswith(":person")
        assert any("50" in spelling for spelling in info["quantifiers"])
        assert info["compile_seconds"] >= 0.0


class TestPlanResolution:
    def test_resolution_memoised_per_epoch(self):
        graph = small_graph()
        plan = compile_plan(sample_pattern())
        first = plan.resolution_for(graph)
        assert plan.resolution_for(graph) is first
        graph.add_edge("a", "d", "follow")
        second = plan.resolution_for(graph)
        assert second is not first
        assert second.snapshot is not first.snapshot

    def test_one_resolution_per_graph_and_superseded_snapshots_are_released(self):
        graph, other = small_graph(), small_graph()
        plan = compile_plan(sample_pattern())
        plan.resolution_for(other)
        superseded = []
        for step in range(6):
            superseded.append(weakref.ref(plan.resolution_for(graph).snapshot))
            edge = [("d", "a", "follow")]
            if step % 2 == 0:
                apply_delta(graph, GraphDelta.build(edge_inserts=edge))
            else:
                apply_delta(graph, GraphDelta.build(edge_deletes=edge))
        current = plan.resolution_for(graph)
        # One live resolution per graph: the plan pins neither an old
        # version's resolution nor, through it, its snapshot.
        assert len(plan._resolutions) == 2
        assert current.snapshot.version == graph.version
        gc.collect()
        assert all(reference() is None for reference in superseded)

    def test_edge_rows_cover_both_orientations(self):
        graph = small_graph()
        plan = compile_plan(sample_pattern())
        resolution = plan.resolution_for(graph)
        assert len(resolution.edge_rows) == len(plan.edges)
        for rows in resolution.edge_rows.values():
            assert rows[0] is not None and rows[1] is not None

    def test_absent_edge_label_resolves_to_none(self):
        graph = PropertyGraph("no-recom")
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_node("c", "person")
        graph.add_node("p", "product")
        graph.add_edge("a", "b", "follow")
        graph.add_edge("a", "c", "follow")
        plan = compile_plan(sample_pattern())
        resolution = plan.resolution_for(graph)
        assert any(rows == (None, None) for rows in resolution.edge_rows.values())

    def test_str_ranks_agree_with_string_order(self):
        graph = small_graph()
        plan = compile_plan(sample_pattern())
        ranks = plan.resolution_for(graph).str_ranks
        nodes = list(graph.nodes())
        assert sorted(nodes, key=ranks.__getitem__) == sorted(nodes, key=str)

    def test_equal_str_nodes_share_a_rank(self):
        # Distinct hashables with equal str() must share a rank so a stable
        # sort by rank reproduces the sort by str exactly (ties included).
        graph = PropertyGraph("mixed-ids")
        graph.add_node(1, "person")
        graph.add_node("1", "person")
        graph.add_node(2, "person")
        plan = compile_plan(sample_pattern())
        ranks = plan.resolution_for(graph).str_ranks
        assert ranks[1] == ranks["1"]
        assert ranks[2] > ranks[1]

    def test_order_preview_starts_at_focus_and_is_a_permutation(self):
        graph = small_graph()
        plan = compile_plan(sample_pattern())
        preview = plan.resolution_for(graph).order_preview
        assert preview[0] == plan.focus_position
        assert sorted(preview) == list(range(len(plan.node_labels)))

    def test_order_label_rendering(self):
        graph = small_graph()
        plan = compile_plan(sample_pattern())
        label = plan.order_label(graph)
        parts = label.split(">")
        assert len(parts) == len(plan.node_labels)
        assert parts[0] == f"x{plan.focus_position}:person"
        # Without a graph, the most recent resolution's preview is reused.
        assert plan.order_label() == label


def test_compile_without_form_canonicalizes_itself():
    pattern = sample_pattern()
    form = canonicalize(pattern)
    plan = compile_plan(pattern)
    assert plan.fingerprint == form.fingerprint


def test_unlabeled_quantifier_edges_default_to_existential():
    pattern = QuantifiedGraphPattern(name="plain")
    pattern.add_node("x", "person")
    pattern.add_node("y", "person")
    pattern.set_focus("x")
    pattern.add_edge("x", "y", "follow")
    plan = compile_plan(pattern)
    (_, _, _, quantifier), = plan.edges
    assert quantifier.is_existential
