"""Tests for plan compilation: the canonical shape EXPLAIN reports on.

A :class:`~repro.plan.CompiledPlan` holds a fingerprint's shape in canonical
positions; it holds no graph state and runs no query.
"""

from __future__ import annotations

from repro.graph import PropertyGraph
from repro.index import GraphIndex
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import compile_plan, plan_compile_count
from repro.service.patterns import canonicalize


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


class TestSnapshotStrRanks:
    def test_str_ranks_agree_with_string_order(self):
        graph = small_graph()
        ranks = GraphIndex.for_graph(graph).str_ranks()
        nodes = list(graph.nodes())
        assert sorted(nodes, key=ranks.__getitem__) == sorted(nodes, key=str)

    def test_equal_str_nodes_share_a_rank(self):
        # Distinct hashables with equal str() must share a rank so a stable
        # sort by rank reproduces the sort by str exactly (ties included).
        graph = PropertyGraph("mixed-ids")
        graph.add_node(1, "person")
        graph.add_node("1", "person")
        graph.add_node(2, "person")
        ranks = GraphIndex.for_graph(graph).str_ranks()
        assert ranks[1] == ranks["1"]
        assert ranks[2] > ranks[1]


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
