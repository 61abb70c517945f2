"""The per-query anchored search (``MatchContext.searcher``) and its reuse.

DMatch builds one :class:`~repro.matching.generic.AnchoredSearch` per query
and runs it once per focus candidate.  These checks hold that reuse against
the oracle's plain search (``_plain_isomorphisms``, which shares none of the
compiled machinery):

* for every focus candidate, in ``str`` order, the reused search's stream and
  probe count equal the oracle's over the focus pinned to that candidate —
  on random chains, forks and triangles;
* a stream abandoned after k items (an early exit) neither corrupts the next
  anchor nor resumes over it;
* a graph mutation between two anchors refreshes the snapshot; the search
  never answers from its stale rows.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import PropertyGraph
from repro.matching.enumerate import _plain_isomorphisms
from repro.matching.generic import MatchContext, label_candidates
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.utils import WorkCounter
from repro.utils.errors import MatchingError

NODE_LABELS = ("person", "product")
EDGE_LABELS = ("follow", "recom")

# Each shape lists (source, target) pattern edges over xo, a, b.
SHAPES = {
    "chain": (("xo", "a"), ("a", "b")),
    "fork": (("xo", "a"), ("xo", "b")),
    "triangle": (("xo", "a"), ("a", "b"), ("b", "xo")),
}


@st.composite
def graphs(draw) -> PropertyGraph:
    num_nodes = draw(st.integers(min_value=3, max_value=14))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    graph = PropertyGraph()
    for node in range(num_nodes):
        graph.add_node(node, "person" if rng.random() < 0.7 else "product")
    for _ in range(draw(st.integers(min_value=0, max_value=45))):
        source, target = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if source != target:
            graph.add_edge(source, target, rng.choice(EDGE_LABELS))
    return graph


@st.composite
def shaped_patterns(draw) -> QuantifiedGraphPattern:
    shape = draw(st.sampled_from(sorted(SHAPES)))
    pattern = QuantifiedGraphPattern(name=shape)
    for node in ("xo", "a", "b"):
        pattern.add_node(node, draw(st.sampled_from(NODE_LABELS)))
    for source, target in SHAPES[shape]:
        pattern.add_edge(
            source, target, draw(st.sampled_from(EDGE_LABELS)),
            CountingQuantifier.at_least(1),
        )
    pattern.set_focus("xo")
    return pattern.stratified()


def oracle_stream(pattern, graph, focus_candidate):
    """The oracle's stream with the focus pinned, and its probes.

    The oracle counts one probe for the pinned focus itself; an anchored
    search binds it without probing.
    """
    candidates = label_candidates(pattern, graph)
    candidates[pattern.focus] = {focus_candidate}
    counter = WorkCounter()
    stream = list(_plain_isomorphisms(pattern, graph, candidates, counter))
    return stream, counter.extensions - 1


@given(graph=graphs(), pattern=shaped_patterns(), abandon=st.integers(0, 3))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reused_search_replays_the_oracle_per_focus_candidate(graph, pattern, abandon):
    context = MatchContext(pattern, graph, anchored_nodes={"xo"})
    counter = WorkCounter()
    search = context.searcher(counter)
    for focus_candidate in sorted(context.candidates["xo"], key=str):
        expected, probes = oracle_stream(pattern, graph, focus_candidate)
        before = counter.extensions
        assert list(search.run({"xo": focus_candidate})) == expected
        assert counter.extensions - before == probes
        # Leave a stream suspended after k items, as an early exit does: the
        # next focus candidate must not see its state.
        assert list(islice(search.run({"xo": focus_candidate}), abandon)) == (
            expected[:abandon]
        )


def likes_graph() -> PropertyGraph:
    graph = PropertyGraph()
    for person in ("p1", "p2", "p3"):
        graph.add_node(person, "person")
    for item in ("i1", "i2", "i3"):
        graph.add_node(item, "item")
    for person, item in (("p1", "i1"), ("p1", "i2"), ("p2", "i2"), ("p2", "i3"), ("p3", "i3")):
        graph.add_edge(person, item, "like")
    return graph


def likes_pattern() -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name="likes")
    pattern.add_node("xo", "person")
    pattern.add_node("y", "item")
    pattern.add_edge("xo", "y", "like", CountingQuantifier.at_least(1))
    pattern.set_focus("xo")
    return pattern.stratified()


class TestStreamReuse:
    def test_abandoned_stream_is_closed_by_the_next_anchor(self):
        graph, pattern = likes_graph(), likes_pattern()
        search = MatchContext(pattern, graph, anchored_nodes={"xo"}).searcher()
        abandoned = search.run({"xo": "p1"})
        assert next(abandoned) == {"xo": "p1", "y": "i1"}
        assert list(search.run({"xo": "p2"})) == [
            {"xo": "p2", "y": "i2"},
            {"xo": "p2", "y": "i3"},
        ]
        # The suspended stream was closed, not left to resume over p2's state.
        assert list(abandoned) == []

    def test_invalid_anchor_yields_nothing_and_keeps_the_search_usable(self):
        graph, pattern = likes_graph(), likes_pattern()
        search = MatchContext(pattern, graph, anchored_nodes={"xo"}).searcher()
        assert list(search.run({"xo": "i1"})) == []  # not a focus candidate
        with pytest.raises(MatchingError):
            search.run({"y": "i1"})  # not the anchored node set
        assert list(search.run({"xo": "p3"})) == [{"xo": "p3", "y": "i3"}]


class TestMutationBetweenAnchors:
    def test_mutation_between_anchors_refreshes_the_snapshot(self):
        graph, pattern = likes_graph(), likes_pattern()
        context = MatchContext(pattern, graph, anchored_nodes={"xo"})
        search = context.searcher()
        stale = context._snapshot
        assert list(search.run({"xo": "p3"})) == [{"xo": "p3", "y": "i3"}]
        graph.add_edge("p3", "i1", "like")
        assert list(search.run({"xo": "p3"})) == [
            {"xo": "p3", "y": "i1"},
            {"xo": "p3", "y": "i3"},
        ]
        assert context._snapshot is not stale
        assert context._snapshot.version == graph.version

    def test_a_refresh_by_one_search_rebinds_the_other(self):
        """The context is fresh again, but the second search bound old rows."""
        graph, pattern = likes_graph(), likes_pattern()
        context = MatchContext(pattern, graph, anchored_nodes={"xo"})
        first, second = context.searcher(), context.searcher()
        graph.add_edge("p3", "i1", "like")
        assert list(first.run({"xo": "p1"})) == [
            {"xo": "p1", "y": "i1"},
            {"xo": "p1", "y": "i2"},
        ]
        for focus_candidate in ("p1", "p2", "p3"):
            expected, _ = oracle_stream(pattern, graph, focus_candidate)
            assert list(second.run({"xo": focus_candidate})) == expected
        assert {"xo": "p3", "y": "i1"} in expected
