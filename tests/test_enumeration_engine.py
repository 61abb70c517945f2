"""The one enumeration engine on dense multi-label graphs.

``MatchContext.isomorphisms`` (frozenset pools intersected from the compiled
row stores) is the only search behind ``dmatch``, ``QMatch``, ``PQMatch`` and
the serving tiers.  These checks hold it against references that share none
of its machinery, on small graphs dense enough that most pools are cut by
several active constraints:

* answers equal the ``Enum`` oracle under all 16 switch combinations;
* the isomorphism stream replays the oracle's plain adjacency search, and
  anchored streams partition it by focus binding;
* nodes with one ``str`` form (``1`` and ``"1"``) share an ordering rank
  without being confused with each other;
* the locality restriction, the parallel coordinator and the query service
  answer exactly what sequential ``QMatch`` answers, and serving compiles no
  plan (only ``explain()`` does, once per call).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.graph.digraph import PropertyGraph
from repro.matching import DMatchOptions, EnumMatcher, QMatch, dmatch
from repro.matching.enumerate import _plain_isomorphisms, evaluate_positive_by_enumeration
from repro.matching.generic import MatchContext, find_isomorphisms, label_candidates
from repro.parallel import PQMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import plan_compile_count
from repro.service import QueryService
from repro.utils import WorkCounter


def social_graph(seed: int, nodes: int = 60, edges: int = 900) -> PropertyGraph:
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


def quantified_pattern(name: str) -> QuantifiedGraphPattern:
    """``chain`` (a ≥ count two hops deep), ``triangle`` (a node bound by two
    active constraints at once), ``exact`` (a non-monotone =) or ``ratio`` (a
    percentage over a second edge label)."""
    pattern = QuantifiedGraphPattern(name=name)
    pattern.add_node("x", "person")
    if name == "chain":
        pattern.add_node("y", "person")
        pattern.add_node("p", "product")
        pattern.add_edge("x", "y", "follow", CountingQuantifier.at_least(2))
        pattern.add_edge("y", "p", "like", CountingQuantifier.existential())
    elif name == "triangle":
        pattern.add_node("y", "person")
        pattern.add_node("p", "product")
        pattern.add_edge("x", "y", "follow", CountingQuantifier.at_least(2))
        pattern.add_edge("x", "p", "like", CountingQuantifier.existential())
        pattern.add_edge("y", "p", "like", CountingQuantifier.existential())
    elif name == "exact":
        pattern.add_node("z", "person")
        pattern.add_edge("x", "z", "follow", CountingQuantifier.exactly(1))
    else:
        pattern.add_node("y", "person")
        pattern.add_node("p", "product")
        pattern.add_edge("x", "y", "follow", CountingQuantifier.at_least(1))
        pattern.add_edge("x", "p", "recom", CountingQuantifier.ratio_at_least(20.0))
    pattern.set_focus("x")
    return pattern


PATTERN_NAMES = ("chain", "triangle", "exact", "ratio")

SWITCHES = ("use_simulation", "use_potential", "early_exit", "use_locality")
OPTION_COMBOS = [
    DMatchOptions(**dict(zip(SWITCHES, bits)))
    for bits in itertools.product((False, True), repeat=len(SWITCHES))
]


def plain_stream(pattern, graph):
    """The oracle's plain search over graph adjacency, plus its probe count."""
    counter = WorkCounter()
    stream = list(
        _plain_isomorphisms(pattern, graph, label_candidates(pattern, graph), counter)
    )
    return stream, counter.extensions


def frozen(assignments):
    return {frozenset(assignment.items()) for assignment in assignments}


# ---------------------------------------------------------------------------
# DMatch under every switch combination
# ---------------------------------------------------------------------------


class TestDMatchAcrossOptions:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_option_combination_equals_oracle(self, seed, name):
        graph = social_graph(seed)
        pattern = quantified_pattern(name)
        oracle, _ = evaluate_positive_by_enumeration(pattern, graph)
        for options in OPTION_COMBOS:
            assert dmatch(pattern, graph, options=options).answer == oracle, options

    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_node_matches_equal_oracle_without_early_exit(self, name):
        # Without early exit every satisfying witness is enumerated, so the
        # per-node match sets are the oracle's, not just the answer.
        graph = social_graph(7)
        pattern = quantified_pattern(name)
        oracle_answer, oracle_matches = evaluate_positive_by_enumeration(pattern, graph)
        assert oracle_answer  # the pattern must match something here
        for use_potential in (False, True):
            options = DMatchOptions(early_exit=False, use_potential=use_potential)
            outcome = dmatch(pattern, graph, options=options)
            assert outcome.answer == oracle_answer
            assert outcome.node_matches == oracle_matches


# ---------------------------------------------------------------------------
# The isomorphism stream
# ---------------------------------------------------------------------------


class TestIsomorphismStream:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    @pytest.mark.parametrize("seed", [4, 5])
    def test_stream_replays_the_plain_search(self, seed, name):
        graph = social_graph(seed)
        stratified = quantified_pattern(name).stratified()
        counter = WorkCounter()
        stream = list(find_isomorphisms(stratified, graph, counter=counter))
        assert stream  # a non-trivial stream
        assert (stream, counter.extensions) == plain_stream(stratified, graph)

    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_anchored_streams_partition_the_unanchored_stream(self, name):
        graph = social_graph(6)
        stratified = quantified_pattern(name).stratified()
        everything, _ = plain_stream(stratified, graph)
        context = MatchContext(stratified, graph, anchored_nodes={"x"})
        replay = MatchContext(stratified, graph, anchored_nodes={"x"})
        covered = set()
        for candidate in sorted(context.candidates["x"]):
            anchor = {"x": candidate}
            counter, replay_counter = WorkCounter(), WorkCounter()
            anchored = list(context.isomorphisms(anchor=anchor, counter=counter))
            assert all(match["x"] == candidate for match in anchored)
            assert anchored == list(
                replay.isomorphisms(anchor=anchor, counter=replay_counter)
            )
            assert counter.__dict__ == replay_counter.__dict__
            assert list(context.isomorphisms(anchor=anchor, limit=2)) == anchored[:2]
            covered |= frozen(anchored)
        assert covered == frozen(everything)


# ---------------------------------------------------------------------------
# Distinct nodes with one str form
# ---------------------------------------------------------------------------


def equal_str_graph() -> PropertyGraph:
    """``1`` and ``"1"`` are distinct nodes that sort identically by ``str``."""
    graph = PropertyGraph()
    graph.add_node(1, label="person")
    graph.add_node("1", label="person")
    graph.add_node("p", label="product")
    graph.add_node("q", label="product")
    graph.add_edge(1, "p", label="like")
    graph.add_edge("1", "p", label="like")
    graph.add_edge("1", "q", label="like")
    return graph


def likes_pattern(count: int) -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name=f"likes>={count}")
    pattern.add_node("x", "person")
    pattern.add_node("y", "product")
    pattern.add_edge("x", "y", "like", CountingQuantifier.at_least(count))
    pattern.set_focus("x")
    return pattern


class TestEqualStrForms:
    def test_stream_equals_plain_search(self):
        graph = equal_str_graph()
        stratified = likes_pattern(1).stratified()
        counter = WorkCounter()
        stream = list(find_isomorphisms(stratified, graph, counter=counter))
        assert len(stream) == 3
        assert (stream, counter.extensions) == plain_stream(stratified, graph)

    def test_answers_equal_oracle(self):
        graph = equal_str_graph()
        for count, expected in ((1, {1, "1"}), (2, {"1"})):
            pattern = likes_pattern(count)
            assert EnumMatcher().evaluate_answer(pattern, graph) == expected
            assert QMatch().evaluate_answer(pattern, graph) == expected
            with QueryService(graph) as service:
                assert service.evaluate(pattern).answer == expected


# ---------------------------------------------------------------------------
# Locality, the parallel coordinator and the service
# ---------------------------------------------------------------------------


def sparse_graph() -> PropertyGraph:
    """Few edges: most focus candidates have an empty or tiny ball."""
    graph = PropertyGraph()
    for node in ("a", "b", "c", "d"):
        graph.add_node(node, label="person")
    for node in ("p", "q"):
        graph.add_node(node, label="product")
    graph.add_edge("a", "b", label="follow")
    graph.add_edge("a", "c", label="follow")
    graph.add_edge("b", "p", label="like")
    graph.add_edge("c", "p", label="like")
    graph.add_edge("a", "q", label="recom")
    graph.add_edge("d", "b", label="follow")
    return graph


class TestLocalityAndDistribution:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_locality_on_sparse_graph_equals_oracle(self, name):
        graph = sparse_graph()
        pattern = quantified_pattern(name)
        expected = EnumMatcher().evaluate_answer(pattern, graph)
        for early_exit in (False, True):
            options = DMatchOptions(use_locality=True, early_exit=early_exit)
            assert dmatch(pattern, graph, options=options).answer == expected
            assert dmatch(pattern, graph).answer == expected

    def test_pqmatch_serial_and_process_equal_sequential(self):
        from repro.datasets import benchmark_graph

        graph = benchmark_graph("pokec", scale=0.2, seed=31)
        options = DMatchOptions(use_locality=True)
        serial = PQMatch(num_workers=2, d=2, engine=QMatch(options=options))
        with PQMatch(
            num_workers=2, d=2, executor="process", engine=QMatch(options=options)
        ) as process:
            for name in PATTERN_NAMES:
                pattern = quantified_pattern(name)
                expected = QMatch().evaluate_answer(pattern, graph)
                assert serial.evaluate_answer(pattern, graph) == expected
                assert process.evaluate_answer(pattern, graph) == expected
            # Workers enumerate over their cached snapshots: no rebuilds.
            assert process.executor.last_worker_rebuilds == 0

    @pytest.mark.parametrize("use_locality", [False, True])
    def test_service_answers_equal_qmatch(self, use_locality):
        from repro.datasets import benchmark_graph

        graph = benchmark_graph("pokec", scale=0.2, seed=37)
        engine = QMatch(options=DMatchOptions(use_locality=use_locality))
        with QueryService(graph, PQMatch(num_workers=1, d=2, engine=engine)) as service:
            for name in PATTERN_NAMES:
                pattern = quantified_pattern(name)
                result = service.evaluate(pattern)
                assert not result.cached
                assert result.answer == QMatch().evaluate_answer(pattern, graph)

    def test_serving_compiles_nothing_and_explain_compiles_once(self):
        graph = social_graph(14)
        patterns = [quantified_pattern(name) for name in PATTERN_NAMES]
        compiles_before = plan_compile_count()
        with QueryService(graph) as service:
            first = [service.evaluate(pattern).answer for pattern in patterns]
            service.cache.clear()
            second = [service.evaluate(pattern).answer for pattern in patterns]
            assert first == second
            assert plan_compile_count() == compiles_before
            service.explain(patterns[0])
            assert plan_compile_count() == compiles_before + 1
            service.explain(patterns[0])
            assert plan_compile_count() == compiles_before + 2
