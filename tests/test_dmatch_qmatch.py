"""Tests for DMatch and the QMatch driver: correctness, caches, options, work."""

from __future__ import annotations

import gc
import importlib
import itertools
import random
import weakref

import pytest

from repro.graph.digraph import PropertyGraph
from repro.matching import (
    DMatchOptions,
    EnumMatcher,
    QMatch,
    dmatch,
    qmatch_engine,
    qmatch_n_engine,
)
from repro.matching.enumerate import evaluate_positive_by_enumeration
from repro.patterns import CountingQuantifier, PatternBuilder, QuantifiedGraphPattern
from repro.utils import MatchingError, PatternError, WorkCounter

from fixtures import build_paper_g1, build_q3


class TestDMatch:
    def test_positive_pattern_answer(self, paper_g1, pattern_q2):
        outcome = dmatch(pattern_q2, paper_g1)
        assert outcome.answer == {"x1", "x2"}

    def test_rejects_negative_patterns(self, paper_g1, pattern_q3):
        with pytest.raises(MatchingError):
            dmatch(pattern_q3, paper_g1)

    @pytest.mark.parametrize(
        "use_simulation, early_exit",
        list(itertools.product([True, False], repeat=2)),
    )
    def test_rejects_disconnected_patterns(self, paper_g1, use_simulation, early_exit):
        # Every pool is non-empty, so the decision is DMatch's own: the
        # search reaches the pattern from the anchored focus, and a part the
        # focus cannot reach is refused rather than answered.
        pattern = QuantifiedGraphPattern(name="split")
        pattern.add_node("xo", "person")
        pattern.add_node("y", "person")
        pattern.add_node("v", "person")
        pattern.add_node("r", "Redmi_2A")
        pattern.add_edge("xo", "y", "follow")
        pattern.add_edge("v", "r", "recom")
        pattern.set_focus("xo")
        with pytest.raises(PatternError, match="not connected"):
            dmatch(
                pattern,
                paper_g1,
                options=DMatchOptions(use_simulation=use_simulation, early_exit=early_exit),
            )

    def test_node_match_caches_cover_answer(self, paper_g1, pattern_q2):
        outcome = dmatch(pattern_q2, paper_g1)
        assert outcome.answer <= outcome.node_matches["xo"]
        assert outcome.node_matches["redmi"] == {"redmi"}
        # Witness bindings of z are among the actual recommenders.
        assert outcome.node_matches["z"] <= {"v0", "v1", "v2", "v3"}

    def test_focus_restriction(self, paper_g1, pattern_q2):
        outcome = dmatch(pattern_q2, paper_g1, focus_restriction={"x1", "x3"})
        assert outcome.answer == {"x1"}

    def test_counts_verifications(self, small_pokec, dataset_q1):
        # Q1's cycle (xo -> z -> y <- xo) runs through the focus, so DMatch
        # conditions on each focus candidate and verifies none; without the
        # simulation it searches, and counts each verification.
        counter = WorkCounter()
        conditioned = dmatch(dataset_q1, small_pokec, counter=counter)
        assert counter.verifications == counter.extensions == 0
        assert counter.quantifier_checks >= 1
        assert counter.extras == {"cutset.answered": 1}
        counter = WorkCounter()
        searched = dmatch(
            dataset_q1, small_pokec, DMatchOptions(use_simulation=False), counter=counter
        )
        assert searched.answer == conditioned.answer
        assert counter.verifications >= 1
        assert counter.quantifier_checks >= 1
        assert counter.extras == {"fixpoint.declined.no_simulation": 1}

    def test_tree_pattern_is_answered_without_verifications(self, paper_g1, pattern_q2):
        # Q2 is a chain: the candidate fixpoint is exact, so no search runs.
        counter = WorkCounter()
        outcome = dmatch(pattern_q2, paper_g1, counter=counter)
        assert outcome.answer == {"x1", "x2"}
        assert counter.verifications == 0 and counter.extensions == 0
        assert counter.extras["fixpoint.answered"] == 1
        # Q(u, G) is every node of a satisfying match, as the oracle has it.
        assert outcome.node_matches == evaluate_positive_by_enumeration(
            pattern_q2, paper_g1
        )[1]

    def test_incremental_pass_answers_a_tree_shaped_positified_pattern(self):
        # Π(Q⁺ᵉ) adds one leaf below the focus; it is still a tree whose
        # same-label nodes are adjacent, so IncQMatch answers from the seeded
        # pools after one final refinement — as does QMatchN from scratch.
        graph = PropertyGraph("shops")
        for node, label in (
            ("x1", "person"), ("x2", "person"), ("x3", "person"),
            ("y1", "person"), ("y2", "person"), ("ph", "phone"), ("s", "shop"),
        ):
            graph.add_node(node, label)
        for source, target, label in (
            ("x1", "y1", "follow"), ("x1", "y2", "follow"),
            ("x2", "y1", "follow"), ("x2", "y2", "follow"), ("x2", "s", "visits"),
            ("x3", "y1", "follow"),
            ("y1", "ph", "recom"), ("y2", "ph", "recom"),
        ):
            graph.add_edge(source, target, label)
        pattern = (
            PatternBuilder("no-shop")
            .focus("xo", "person")
            .node("z", "person")
            .node("phone", "phone")
            .node("shop", "shop")
            .edge("xo", "z", "follow", at_least=2)
            .edge("z", "phone", "recom")
            .edge("xo", "shop", "visits", negated=True)
            .build()
        )
        assert EnumMatcher().evaluate_answer(pattern, graph) == {"x1"}
        for engine in (qmatch_engine(), qmatch_n_engine()):
            result = engine.evaluate(pattern, graph)
            assert result.answer == {"x1"}
            assert result.counter.extras == {"fixpoint.answered": 2}
            assert result.counter.verifications == 0

    def test_empty_candidates_short_circuit(self, paper_g1):
        pattern = (
            PatternBuilder()
            .focus("x", "alien")
            .node("y", "person")
            .edge("x", "y", "follow")
            .build()
        )
        counter = WorkCounter()
        outcome = dmatch(pattern, paper_g1, counter=counter)
        assert outcome.answer == set()
        assert counter.verifications == 0

    def test_as_match_result(self, paper_g1, pattern_q2):
        result = dmatch(pattern_q2, paper_g1).as_match_result(engine="DMatch")
        assert result.answer == {"x1", "x2"}
        assert result.engine == "DMatch"

    def test_focus_restriction_shapes_identical(self):
        """The no-copy ``intersection_update`` accepts any iterable
        restriction — set, frozenset, tuple, list — with identical results."""
        graph = _random_graph(11)
        pattern = _chain_pattern()
        unrestricted = dmatch(pattern, graph).answer
        some = sorted(unrestricted)[: max(1, len(unrestricted) // 2)]
        expected = unrestricted & set(some)
        for shape in (set(some), frozenset(some), tuple(some), list(some)):
            outcome = dmatch(pattern, graph, focus_restriction=shape)
            assert outcome.answer == expected


def _random_graph(seed: int, nodes: int = 60, edges: int = 900) -> PropertyGraph:
    """A dense random person/product graph over three edge labels."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    for index in range(nodes):
        graph.add_node(f"n{index}", label="person" if index % 3 else "product")
    for _ in range(edges):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            graph.add_edge(f"n{a}", f"n{b}", label=rng.choice(["follow", "like", "recom"]))
    return graph


def _chain_pattern() -> QuantifiedGraphPattern:
    chain = QuantifiedGraphPattern(name="chain")
    chain.add_node("x", "person")
    chain.add_node("y", "person")
    chain.add_node("p", "product")
    chain.add_edge("x", "y", "follow", CountingQuantifier.at_least(2))
    chain.add_edge("y", "p", "like", CountingQuantifier.existential())
    chain.set_focus("x")
    return chain


class TestOptionCombinations:
    """Every optimisation switch must preserve the answer (ablation correctness)."""

    @pytest.mark.parametrize(
        "use_simulation, early_exit",
        list(itertools.product([True, False], repeat=2)),
    )
    def test_all_option_combinations_agree(self, paper_g1, use_simulation, early_exit):
        options = DMatchOptions(use_simulation=use_simulation, early_exit=early_exit)
        pattern = build_q3(p=2)
        assert QMatch(options=options).evaluate_answer(pattern, paper_g1) == {"x2"}

    def test_options_agree_on_dataset_patterns(self, small_pokec, dataset_q1, dataset_q3):
        reference = EnumMatcher()
        for pattern in (dataset_q1, dataset_q3):
            expected = reference.evaluate_answer(pattern, small_pokec)
            for options in (
                DMatchOptions(),
                DMatchOptions(use_simulation=False),
                DMatchOptions(early_exit=False),
                DMatchOptions(use_simulation=False, early_exit=False),
            ):
                assert QMatch(options=options).evaluate_answer(pattern, small_pokec) == expected


class TestQMatchDriver:
    def test_engine_names(self):
        assert QMatch().name == "QMatch"
        assert QMatch(use_incremental=False).name == "QMatchN"
        assert qmatch_engine().use_incremental
        assert not qmatch_n_engine().use_incremental

    def test_result_fields(self, paper_g1, pattern_q3):
        result = QMatch().evaluate(pattern_q3, paper_g1)
        assert result.engine == "QMatch"
        assert result.answer == {"x2"}
        assert result.positive_answer == {"x2", "x3"}
        assert result.elapsed >= 0.0
        assert len(result.incremental) == 1
        assert result.counter.total_work() > 0

    def test_incremental_and_scratch_agree(self, paper_g1, small_pokec, dataset_q3):
        for graph, pattern in ((paper_g1, build_q3(p=2)), (small_pokec, dataset_q3)):
            incremental = QMatch(use_incremental=True).evaluate(pattern, graph)
            scratch = QMatch(use_incremental=False).evaluate(pattern, graph)
            assert incremental.answer == scratch.answer

    def test_negation_only_subtracts(self, paper_g1):
        """Adding a negated edge can only shrink the answer (Lemma 10 flavour)."""
        with_negation = build_q3(p=1)
        positive_only = with_negation.pi()
        answer_full = QMatch().evaluate_answer(with_negation, paper_g1)
        answer_positive = QMatch().evaluate_answer(positive_only, paper_g1)
        assert answer_full <= answer_positive

    def test_conventional_pattern_reduces_to_subgraph_isomorphism(self, paper_g1):
        pattern = (
            PatternBuilder()
            .focus("x", "person")
            .node("y", "person")
            .node("r", "Redmi_2A")
            .edge("x", "y", "follow")
            .edge("y", "r", "recom")
            .build()
        )
        assert QMatch().evaluate_answer(pattern, paper_g1) == {"x1", "x2", "x3"}

    def test_focus_restriction_passthrough(self, paper_g1, pattern_q3):
        result = QMatch().evaluate(pattern_q3, paper_g1, focus_restriction={"x3"})
        assert result.answer == set()
        result = QMatch().evaluate(pattern_q3, paper_g1, focus_restriction={"x2"})
        assert result.answer == {"x2"}

    def test_more_than_quantifier(self, paper_g1):
        pattern = (
            PatternBuilder("gt")
            .focus("x", "person")
            .node("y", "person")
            .node("r", "Redmi_2A")
            .edge("x", "y", "follow", more_than=2)
            .edge("y", "r", "recom")
            .build()
        )
        # Only x3 follows more than two recommenders... but only 2 of its
        # followees recommend, so nobody qualifies.
        assert QMatch().evaluate_answer(pattern, paper_g1) == set()
        assert EnumMatcher().evaluate_answer(pattern, paper_g1) == set()

    def test_exact_count_quantifier(self, paper_g1):
        pattern = (
            PatternBuilder("eq")
            .focus("x", "person")
            .node("y", "person")
            .node("r", "Redmi_2A")
            .edge("x", "y", "follow", exactly=2)
            .edge("y", "r", "recom")
            .build()
        )
        expected = EnumMatcher().evaluate_answer(pattern, paper_g1)
        assert QMatch().evaluate_answer(pattern, paper_g1) == expected == {"x2", "x3"}


class TestPerQueryState:
    @pytest.mark.parametrize("use_simulation", [False, True])
    def test_the_search_context_dies_with_its_query(self, monkeypatch, use_simulation):
        # The graph's snapshot outlives every query it serves, so nothing
        # derived from one query (its search context: matching order,
        # pattern adjacency, compiled constraint plan) may be memoised on it.
        # The package re-exports the function as ``repro.matching.dmatch``,
        # so fetch the module itself.
        dmatch_module = importlib.import_module("repro.matching.dmatch")
        contexts = []
        original = dmatch_module.MatchContext

        def recording(*args, **kwargs):
            context = original(*args, **kwargs)
            contexts.append(weakref.ref(context))
            return context

        monkeypatch.setattr(dmatch_module, "MatchContext", recording)
        graph, pattern = build_paper_g1(), build_q3(p=2)
        result = QMatch(options=DMatchOptions(use_simulation=use_simulation)).evaluate(
            pattern, graph
        )
        assert result.answer == {"x2"}
        gc.collect()
        assert contexts
        assert all(reference() is None for reference in contexts)


class TestWorkAccounting:
    def test_qmatch_prunes_more_candidates_than_it_verifies(self, small_pokec, dataset_q3):
        result = QMatch().evaluate(dataset_q3, small_pokec)
        focus_candidates = len(small_pokec.nodes_with_label("person"))
        assert result.counter.verifications <= focus_candidates + len(result.positive_answer)

    def test_enum_does_more_quantifier_checks_than_qmatch(self, small_pokec, dataset_q3):
        enum_result = EnumMatcher().evaluate(dataset_q3, small_pokec)
        qmatch_result = QMatch().evaluate(dataset_q3, small_pokec)
        assert qmatch_result.counter.extensions <= enum_result.counter.extensions


class TestFig8aWorkOrdering:
    """Figure 8(a)'s query mix in tier-1: IncQMatch never does more work
    than recomputing each positified pattern from scratch.

    Both answer tree-shaped passes from the candidate fixpoint; if the
    incremental pass did not (its seeded pools need one final refinement
    first), QMatch would verify candidates QMatchN answers without a search
    — on ``small_yago`` that inverts the ordering (161 against 152).
    """

    @pytest.mark.parametrize(
        "dataset, queries",
        [("pokec", ("Q1", "Q2", "Q3")), ("yago2", ("Q4", "Q5"))],
    )
    def test_qmatch_verifies_no_more_than_qmatchn(
        self, request, dataset, queries
    ):
        from repro.datasets import paper_pattern, workload_patterns

        graph = request.getfixturevalue(
            {"pokec": "small_pokec", "yago2": "small_yago"}[dataset]
        )
        patterns = [
            paper_pattern(query, p=2) if query in ("Q3", "Q4") else paper_pattern(query)
            for query in queries
        ]
        patterns += workload_patterns(graph, count=2, num_nodes=5, num_edges=7,
                                      ratio_percent=30.0, num_negated=1, seed=11)
        verifications = {}
        answers = {}
        for name, engine in (
            ("QMatch", qmatch_engine()),
            ("QMatchN", qmatch_n_engine()),
            ("Enum", EnumMatcher()),
        ):
            results = [engine.evaluate(pattern, graph) for pattern in patterns]
            verifications[name] = sum(r.counter.verifications for r in results)
            answers[name] = [r.answer for r in results]
        assert verifications["QMatch"] <= verifications["QMatchN"]
        assert answers["QMatch"] == answers["QMatchN"] == answers["Enum"]
