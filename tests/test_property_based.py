"""Property-based tests (hypothesis) for the core data structures and engines.

The single most important property in the whole suite: on randomly generated
graphs and randomly generated quantified patterns, the optimized QMatch (in
any configuration) and the parallel PQMatch return exactly the same answer as
the enumerate-then-verify reference implementation, which is a direct
transcription of the paper's semantics.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graph import PropertyGraph
from repro.matching import DMatchOptions, EnumMatcher, QMatch, build_candidate_index
from repro.parallel import PQMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.utils.errors import PatternValidationError

from test_engine_oracle import OPTION_COMBOS

NODE_LABELS = ["person", "product"]
EDGE_LABELS = ["follow", "recom"]

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def labeled_graphs(draw, max_nodes: int = 14, max_edges: int = 40) -> PropertyGraph:
    """Small random labeled digraphs with a skew toward 'person' nodes."""
    num_nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = PropertyGraph(f"hyp-{seed}")
    for node in range(num_nodes):
        label = "person" if rng.random() < 0.7 else "product"
        graph.add_node(node, label)
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(num_edges):
        source = rng.randrange(num_nodes)
        target = rng.randrange(num_nodes)
        if source == target:
            continue
        label = rng.choice(EDGE_LABELS)
        graph.add_edge(source, target, label)
    return graph


@st.composite
def quantified_patterns(draw) -> QuantifiedGraphPattern:
    """Small star-or-path shaped QGPs over the same vocabulary as the graphs."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    pattern = QuantifiedGraphPattern(name=f"hyp-Q{seed}")
    pattern.add_node("x", "person")
    pattern.set_focus("x")
    branches = draw(st.integers(min_value=1, max_value=3))
    include_negation = draw(st.booleans())
    quantifier_kind = draw(st.sampled_from(["exist", "count", "ratio", "universal"]))
    for index in range(branches):
        child = f"y{index}"
        pattern.add_node(child, "person")
        if index == 0:
            if quantifier_kind == "count":
                quantifier = CountingQuantifier.at_least(draw(st.integers(1, 3)))
            elif quantifier_kind == "ratio":
                quantifier = CountingQuantifier.ratio_at_least(
                    draw(st.sampled_from([25.0, 50.0, 80.0]))
                )
            elif quantifier_kind == "universal":
                quantifier = CountingQuantifier.universal()
            else:
                quantifier = CountingQuantifier.existential()
        else:
            quantifier = CountingQuantifier.existential()
        pattern.add_edge("x", child, "follow", quantifier)
        if rng.random() < 0.6:
            leaf = f"p{index}"
            pattern.add_node(leaf, "product")
            pattern.add_edge(child, leaf, "recom")
    if include_negation:
        pattern.add_node("neg", "person")
        pattern.add_edge("x", "neg", "follow", CountingQuantifier.negation())
    pattern.validate()
    return pattern


COUNTED = (
    CountingQuantifier.existential(),
    CountingQuantifier.at_least(2),
    CountingQuantifier.at_least(3),
    CountingQuantifier.exactly(1),
    CountingQuantifier.exactly(2),
    CountingQuantifier.ratio_at_least(50.0),
    CountingQuantifier.universal(),
)


@st.composite
def counted_patterns(draw) -> QuantifiedGraphPattern:
    """Chains, forks and triangles whose counting quantifiers may sit on any
    positive edge — the focus's or a deeper one — plus an optional negated
    branch.  Shapes the paper's simple-path restriction rejects are skipped."""
    pattern = QuantifiedGraphPattern(name="hyp-counted")
    pattern.add_node("x", "person")
    pattern.set_focus("x")
    pattern.add_node("y", "person")
    pattern.add_edge("x", "y", "follow", draw(st.sampled_from(COUNTED)))
    shape = draw(st.sampled_from(["edge", "chain", "fork", "triangle"]))
    if shape != "edge":
        pattern.add_node("z", draw(st.sampled_from(NODE_LABELS)))
        source = "x" if shape == "fork" else "y"
        pattern.add_edge(source, "z", draw(st.sampled_from(EDGE_LABELS)),
                         draw(st.sampled_from(COUNTED)))
        if shape == "triangle":
            pattern.add_edge("x", "z", draw(st.sampled_from(EDGE_LABELS)))
    if draw(st.booleans()):
        pattern.add_node("n", "product")
        pattern.add_edge("x", "n", "recom", CountingQuantifier.negation())
    try:
        pattern.validate()
    except PatternValidationError:
        assume(False)
    return pattern


# ---------------------------------------------------------------------------
# Engine equivalence
# ---------------------------------------------------------------------------


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_qmatch_agrees_with_reference_semantics(graph, pattern):
    expected = EnumMatcher().evaluate_answer(pattern, graph)
    assert QMatch().evaluate_answer(pattern, graph) == expected


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_qmatch_without_optimisations_agrees(graph, pattern):
    options = DMatchOptions(
        use_simulation=False, use_potential=False, early_exit=False, use_locality=False
    )
    expected = EnumMatcher().evaluate_answer(pattern, graph)
    assert QMatch(options=options).evaluate_answer(pattern, graph) == expected


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_parallel_matching_agrees_with_sequential(graph, pattern):
    sequential = QMatch().evaluate_answer(pattern, graph)
    parallel = PQMatch(num_workers=3, d=max(pattern.radius(), 1), seed=0).evaluate_answer(
        pattern, graph
    )
    assert parallel == sequential


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_qmatch_positive_part_agrees_with_reference_semantics(graph, pattern):
    """Both the answer and the positive part Π(Q) equal the Enum oracle's,
    with and without the potential ordering."""
    expected = EnumMatcher().evaluate(pattern, graph)
    for options in (DMatchOptions(), DMatchOptions(use_potential=False)):
        result = QMatch(options=options).evaluate(pattern, graph)
        assert result.answer == expected.answer
        assert result.positive_answer == expected.positive_answer


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_enumeration_stream_replays_the_oracle_search(graph, pattern):
    """The CSR-row enumeration must replay the oracle's plain adjacency
    search exactly: same assignments in the same order, same probes."""
    from itertools import islice

    from repro.matching import find_isomorphisms
    from repro.matching.enumerate import _plain_isomorphisms
    from repro.matching.generic import label_candidates
    from repro.utils import WorkCounter

    skeleton = pattern.pi().stratified()
    engine_counter, oracle_counter = WorkCounter(), WorkCounter()
    engine = list(find_isomorphisms(skeleton, graph, limit=100, counter=engine_counter))
    oracle = list(islice(
        _plain_isomorphisms(
            skeleton, graph, label_candidates(skeleton, graph), oracle_counter
        ),
        100,
    ))
    assert engine == oracle
    assert engine_counter.extensions == oracle_counter.extensions


@given(graph=labeled_graphs())
@settings(**SETTINGS)
def test_csr_bfs_matches_dict_bfs(graph):
    """The merged-CSR frontier BFS reaches exactly the dict BFS node sets."""
    from repro.graph import nodes_within_hops
    from repro.index import GraphIndex

    snapshot = GraphIndex.for_graph(graph)
    merged = snapshot.neighborhoods()
    scratch = bytearray(snapshot.num_nodes)
    for node in graph.nodes():
        for hops in (0, 1, 3):
            reached = merged.nodes_within_hops_ids(
                snapshot.node_id(node), hops, visited=scratch
            )
            assert snapshot.to_nodes(reached) == nodes_within_hops(graph, node, hops)
    assert not any(scratch)


@given(graph=labeled_graphs())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_dpar_partition_is_complete_and_covering(graph):
    """The compiled d-hop expansion builds a valid partition: every node owned
    exactly once, and every owned node's Nd (re-expanded by the plain
    adjacency BFS) inside its fragment."""
    from repro.parallel import DPar

    partition = DPar(d=1, seed=2).partition(graph, 2)
    assert partition.is_complete()
    assert partition.is_covering()
    assert sum(len(f.owned_nodes) for f in partition.fragments) == graph.num_nodes


@given(graph=labeled_graphs(), pattern=counted_patterns())
@settings(**SETTINGS)
def test_candidate_pools_keep_every_oracle_match(graph, pattern):
    """The bound filter, counted against the live pools to a fixpoint, keeps
    every node the oracle binds in a satisfying match, and every switch
    combination answers (and, without early exit, binds) like the oracle —
    also when a counting quantifier sits below the focus."""
    expected = EnumMatcher().evaluate(pattern, graph)
    positive = pattern.pi()
    for use_simulation in (True, False):
        index = build_candidate_index(positive, graph, use_simulation=use_simulation)
        for node, matches in expected.node_matches.items():
            assert matches <= index.candidate_set(node), (use_simulation, node)
    for options in OPTION_COMBOS:
        result = QMatch(options=options).evaluate(pattern, graph)
        assert result.answer == expected.answer, options
        assert result.positive_answer == expected.positive_answer, options
        if not options.early_exit:
            assert result.node_matches == expected.node_matches, options


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_negation_only_shrinks_the_answer(graph, pattern):
    """Q(xo, G) ⊆ Π(Q)(xo, G): removing the negated branches can only add matches."""
    result = QMatch().evaluate(pattern, graph)
    assert result.answer <= result.positive_answer


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_answers_are_focus_label_nodes(graph, pattern):
    answer = QMatch().evaluate_answer(pattern, graph)
    for node in answer:
        assert graph.node_label(node) == pattern.node_label(pattern.focus)


# ---------------------------------------------------------------------------
# Scale-out tier: sharded fleet vs single-service oracle
# ---------------------------------------------------------------------------


@given(
    graph=labeled_graphs(),
    pattern=quantified_patterns(),
    num_shards=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_sharded_service_matches_union_oracle(graph, pattern, num_shards):
    """ShardedService ≡ one QueryService on the union graph, byte for byte.

    The answer must match exactly, and the router's merged WorkCounter must
    equal the sum of the per-shard counters it reports — per-slot accounting
    that cannot silently lose a shard's contribution.
    """
    from repro.serve import ShardedService
    from repro.service import QueryService
    from repro.utils.counters import WorkCounter

    d = max(pattern.radius(), 1)
    oracle_graph = graph.copy()
    with QueryService(oracle_graph) as oracle, ShardedService(
        graph, num_shards=num_shards, d=d
    ) as fleet:
        expected = oracle.evaluate(pattern)
        served = fleet.evaluate(pattern)
        assert served.answer == expected.answer
        assert not served.cached
        summed = WorkCounter()
        for counter in fleet.last_round_counters.values():
            summed.merge(counter)
        assert served.counter is not None
        assert served.counter.as_dict() == summed.as_dict()
        # Serving again at the same version vector is a pure cache hit.
        again = fleet.evaluate(pattern)
        assert again.cached and again.answer == expected.answer
        fleet.check_invariants()


@given(graph=labeled_graphs(), num_shards=st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_shard_build_is_deterministic_and_covering(graph, num_shards):
    """Two independent builds agree exactly (cross-process determinism), the
    owned sets partition the node universe, and every shard graph is the
    induced ball of its owned set."""
    from repro.serve import build_shards, undirected_ball

    first, _ = build_shards(graph, num_shards, d=2)
    second, _ = build_shards(graph.copy(), num_shards, d=2)
    assert [s.owned for s in first] == [s.owned for s in second]
    assert [s.graph for s in first] == [s.graph for s in second]
    all_owned = [node for shard in first for node in shard.owned]
    assert len(all_owned) == len(set(all_owned)) == graph.num_nodes
    for shard in first:
        ball = undirected_ball(graph, shard.owned, 2) if shard.owned else set()
        assert set(shard.graph.nodes()) == ball


# ---------------------------------------------------------------------------
# Quantifier properties
# ---------------------------------------------------------------------------


@given(
    count=st.integers(min_value=0, max_value=20),
    total=st.integers(min_value=0, max_value=20),
    percent=st.sampled_from([10.0, 25.0, 50.0, 80.0, 100.0]),
)
def test_ratio_check_equals_numeric_threshold(count, total, percent):
    """check(count, total) for '>= p%' is equivalent to count >= numeric_threshold(total)."""
    quantifier = CountingQuantifier.ratio_at_least(percent)
    if total == 0:
        assert not quantifier.check(count, total)
    else:
        count = min(count, total)
        assert quantifier.check(count, total) == (count >= quantifier.numeric_threshold(total))


@given(
    threshold=st.integers(min_value=1, max_value=10),
    count=st.integers(min_value=0, max_value=20),
    upper=st.integers(min_value=0, max_value=20),
)
def test_pruning_is_sound(threshold, count, upper):
    """If the quantifier holds for a count below the upper bound, pruning must not fire."""
    quantifier = CountingQuantifier.at_least(threshold)
    if count <= upper and quantifier.check(count, upper):
        assert quantifier.may_still_hold(upper, upper)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


@given(graph=labeled_graphs())
@settings(**SETTINGS)
def test_graph_internal_consistency(graph):
    graph.validate()
    assert graph.num_edges == len(list(graph.edges()))
    for source, target, label in graph.edges():
        assert target in graph.successors(source, label)
        assert source in graph.predecessors(target, label)


@given(graph=labeled_graphs())
@settings(**SETTINGS)
def test_induced_subgraph_never_gains_edges(graph):
    nodes = [node for node in graph.nodes() if isinstance(node, int) and node % 2 == 0]
    sub = graph.induced_subgraph(nodes)
    assert sub.num_nodes == len(nodes)
    assert sub.num_edges <= graph.num_edges
    for source, target, label in sub.edges():
        assert graph.has_edge(source, target, label)


@given(graph=labeled_graphs())
@settings(**SETTINGS)
def test_json_round_trip_property(graph):
    from repro.graph import graph_from_json, graph_to_json

    assert graph_from_json(graph_to_json(graph)) == graph
