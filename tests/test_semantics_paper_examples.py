"""Ground-truth semantics tests: the worked examples of the paper.

Examples 3, 4, 6 and 7 of the paper state the answers of Q2, Π(Q3), Q3 and Q4
on the graphs G1/G2 of Figure 2 explicitly.  These tests pin the semantics of
every engine (the Enum reference, QMatch with and without its optimisations,
and the parallel PQMatch) to those published answers.
"""

from __future__ import annotations

import pytest

from repro.matching import DMatchOptions, EnumMatcher, QMatch
from repro.parallel import PQMatch
from repro.patterns import PatternBuilder

from fixtures import build_q3, build_q4


ENGINES = [
    pytest.param(lambda: EnumMatcher(), id="Enum"),
    pytest.param(lambda: QMatch(), id="QMatch"),
    pytest.param(lambda: QMatch(use_incremental=False), id="QMatchN"),
    pytest.param(
        lambda: QMatch(options=DMatchOptions(use_simulation=False, early_exit=False)),
        id="QMatch-no-optimisations",
    ),
    pytest.param(lambda: PQMatch(num_workers=3, d=2, seed=1), id="PQMatch"),
]


class TestExample3:
    """Q2(xo, G1) = {x1, x2}: all their followees recommend the phone."""

    @pytest.mark.parametrize("engine_factory", ENGINES)
    def test_q2_answer(self, engine_factory, paper_g1, pattern_q2):
        engine = engine_factory()
        assert engine.evaluate_answer(pattern_q2, paper_g1) == {"x1", "x2"}

    def test_x3_matches_stratified_but_not_quantified(self, paper_g1, pattern_q2):
        """x3 satisfies the topology of Q2π but fails the 100% quantifier."""
        from repro.matching import exists_isomorphism

        assert exists_isomorphism(pattern_q2.stratified(), paper_g1, anchor={"xo": "x3"})
        assert "x3" not in EnumMatcher().evaluate_answer(pattern_q2, paper_g1)


class TestExample4:
    """Π(Q3)(xo, G1) = {x2, x3} and Q3(xo, G1) = {x2} for p = 2."""

    @pytest.mark.parametrize("engine_factory", ENGINES)
    def test_q3_answer(self, engine_factory, paper_g1, pattern_q3):
        engine = engine_factory()
        assert engine.evaluate_answer(pattern_q3, paper_g1) == {"x2"}

    def test_positive_part_answer(self, paper_g1, pattern_q3):
        result = QMatch().evaluate(pattern_q3, paper_g1)
        assert result.positive_answer == {"x2", "x3"}
        assert result.answer == {"x2"}

    def test_x1_fails_the_numeric_aggregate(self, paper_g1):
        """x1 follows a single recommender, so it already fails Π(Q3) for p = 2."""
        result = QMatch().evaluate(build_q3(p=2), paper_g1)
        assert "x1" not in result.positive_answer

    def test_with_p_equal_one_x1_matches_positive_part(self, paper_g1):
        result = QMatch().evaluate(build_q3(p=1), paper_g1)
        assert result.positive_answer == {"x1", "x2", "x3"}
        assert result.answer == {"x1", "x2"}

    @pytest.mark.parametrize("engine_factory", ENGINES)
    def test_q4_answer_on_g2(self, engine_factory, paper_g2, pattern_q4):
        """Q4(xo, G2) = {x5, x6}: x4 is excluded by the negated PhD edge."""
        engine = engine_factory()
        assert engine.evaluate_answer(pattern_q4, paper_g2) == {"x5", "x6"}

    def test_q4_with_p_three_is_empty(self, paper_g2):
        """No professor in G2 advised three matching students."""
        assert QMatch().evaluate_answer(build_q4(p=3), paper_g2) == set()


class TestExample10:
    """The appendix example: changing UK to US empties the answer."""

    def test_relabelled_g2_has_no_match(self, paper_g2, pattern_q4):
        relabelled = paper_g2.copy()
        relabelled.add_node("uk", "US")  # re-label the UK node
        assert QMatch().evaluate_answer(pattern_q4, relabelled) == set()
        assert EnumMatcher().evaluate_answer(pattern_q4, relabelled) == set()


class TestRatioSemantics:
    """The 80% quantifier of Q1, on a graph engineered around the threshold."""

    def make_pattern(self, percent: float):
        return (
            PatternBuilder("Q1-like")
            .focus("xo", "person")
            .node("z", "person")
            .node("y", "album")
            .edge("xo", "z", "follow", at_least_percent=percent)
            .edge("z", "y", "like")
            .build()
        )

    @pytest.fixture
    def ratio_graph(self, paper_g1):
        """u80 has 4/5 followees liking the album; u60 only 3/5."""
        from repro.graph import PropertyGraph

        graph = PropertyGraph("ratio")
        graph.add_node("album", "album")
        for user, liking in (("u80", 4), ("u60", 3)):
            graph.add_node(user, "person")
            for index in range(5):
                friend = f"{user}_f{index}"
                graph.add_node(friend, "person")
                graph.add_edge(user, friend, "follow")
                if index < liking:
                    graph.add_edge(friend, "album", "like")
        return graph

    def test_eighty_percent_threshold(self, ratio_graph):
        answer = QMatch().evaluate_answer(self.make_pattern(80.0), ratio_graph)
        assert answer == {"u80"}

    def test_sixty_percent_threshold(self, ratio_graph):
        answer = QMatch().evaluate_answer(self.make_pattern(60.0), ratio_graph)
        assert answer == {"u80", "u60"}

    def test_engines_agree_on_ratios(self, ratio_graph):
        pattern = self.make_pattern(80.0)
        assert EnumMatcher().evaluate_answer(pattern, ratio_graph) == QMatch().evaluate_answer(
            pattern, ratio_graph
        )
