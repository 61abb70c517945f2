"""The matching engine against independent oracles.

There is one matching path in ``repro``: every candidate filter, simulation
fixpoint, potential ordering and enumeration runs over the compiled
:class:`repro.index.GraphIndex` snapshot.  What keeps it honest is checked
here, on the paper's example graphs and on seeded generator graphs:

* answers equal the ``Enum`` oracle (:class:`repro.matching.EnumMatcher`,
  the enumerate-then-verify transcription of the semantics, which runs its
  own plain search over :class:`PropertyGraph` adjacency) under every
  combination of the engine switches;
* every :class:`WorkCounter` field equals golden values, and no case does
  more verifications or extensions than it did while ``U(v, e)`` counted
  children by label only (those older tuples were recorded while a
  dict-backed twin of every stage was asserted equal to the compiled path);
* the ``find_isomorphisms`` stream replays the oracle's plain search — same
  assignments, same order, same extension count;
* simulation relations and candidate indexes equal the textbook
  constructions below (a worklist fixpoint, and the bound filter counted
  against the live pools to a fixpoint, over plain adjacency), which share
  nothing with the compiled code.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.graph import PropertyGraph, nodes_within_hops
from repro.graph.simulation import (
    dual_simulation_relation,
    refine_candidates,
    simulation_relation,
)
from repro.index import GraphIndex
from repro.matching import (
    DMatchOptions,
    EnumMatcher,
    QMatch,
    build_candidate_index,
    dmatch,
)
from repro.matching.enumerate import (
    _plain_isomorphisms,
    evaluate_positive_by_enumeration,
)
from repro.matching.generic import MatchContext, find_isomorphisms, label_candidates
from repro.matching.qmatch import query_strategy
from repro.patterns import CountingQuantifier, PatternBuilder, QuantifiedGraphPattern
from repro.parallel.coordinator import penum_engine
from repro.parallel.partition import DPar, base_partition
from repro.serve import ShardedService
from repro.service import QueryService
from repro.utils import WorkCounter
from repro.utils.errors import PatternValidationError, ReproError
from repro.utils.rng import ensure_rng

from fixtures import build_paper_g1, build_paper_g2, build_q2, build_q3, build_q4


# --------------------------------------------------------------------------
# Test-only references over plain PropertyGraph adjacency.
# --------------------------------------------------------------------------


def reference_refine(pattern_graph, graph, candidates, dual):
    """The (dual) simulation worklist fixpoint, probing graph adjacency sets.

    Mutates and returns *candidates*: remove every candidate that lost
    support for some pattern edge, re-schedule the pattern neighbours of a
    shrunk pool, stop when nothing changes.
    """
    pattern_nodes = list(pattern_graph.nodes())
    worklist = deque(pattern_nodes)
    in_worklist = set(pattern_nodes)
    while worklist:
        u = worklist.popleft()
        in_worklist.discard(u)
        out_requirements = [
            (label, child)
            for label in pattern_graph.out_edge_labels(u)
            for child in pattern_graph.successors(u, label)
        ]
        in_requirements = []
        if dual:
            in_requirements = [
                (label, parent)
                for parent in pattern_graph.predecessors(u)
                for label in pattern_graph.edge_labels(parent, u)
            ]
        survivors = set()
        for v in candidates[u]:
            supported = all(
                not graph.successors(v, label).isdisjoint(candidates[child])
                for label, child in out_requirements
            ) and all(
                not graph.predecessors(v, label).isdisjoint(candidates[parent])
                for label, parent in in_requirements
            )
            if supported:
                survivors.add(v)
        if survivors != candidates[u]:
            candidates[u] = survivors
            for neighbor in pattern_graph.predecessors(u) | pattern_graph.successors(u):
                if neighbor not in in_worklist:
                    worklist.append(neighbor)
                    in_worklist.add(neighbor)
    return candidates


def reference_simulation(pattern_graph, graph, dual):
    """The maximal (dual) simulation relation, seeded from label candidates."""
    seeds = {
        u: set(graph.nodes_with_label(pattern_graph.node_label(u)))
        for u in pattern_graph.nodes()
    }
    return reference_refine(pattern_graph, graph, seeds, dual)


def reference_upper_bound(graph, source, edge_label, pool):
    """``U(v, e)``: children of *source* via *edge_label* still in *pool*."""
    return sum(1 for child in graph.successors(source, edge_label) if child in pool)


def reference_candidate_index(pattern, graph, use_simulation):
    """``(candidates, upper_bounds, pruned)`` of the QMatch candidate filter.

    One bound pass visits the positive edges in pattern order: a focus
    candidate stays while its quantifier may still hold for its bound, any
    other candidate while it has a child in the target pool.  Bound passes
    alternate with the dual simulation worklist (when *use_simulation*)
    until a bound pass prunes nothing; the bounds returned are that last
    pass's, and *pruned* counts the bound passes' removals only.
    """
    skeleton = pattern.stratified().graph
    if use_simulation:
        candidates = reference_simulation(skeleton, graph, dual=True)
    else:
        candidates = {
            u: set(graph.nodes_with_label(pattern.node_label(u)))
            for u in pattern.nodes()
        }
    pruned = 0
    while True:
        upper_bounds = {}
        pass_pruned = 0
        for edge in pattern.edges():
            quantifier = edge.quantifier
            if quantifier.is_negation:
                continue
            pool = candidates[edge.target]
            survivors = set()
            for candidate in candidates[edge.source]:
                bound = reference_upper_bound(graph, candidate, edge.label, pool)
                upper_bounds[(edge.key, candidate)] = bound
                if edge.source == pattern.focus:
                    total = graph.out_degree(candidate, edge.label)
                    keep = quantifier.may_still_hold(bound, total)
                else:
                    keep = bound > 0
                if keep:
                    survivors.add(candidate)
                else:
                    pass_pruned += 1
            candidates[edge.source] = survivors
        pruned += pass_pruned
        if not pass_pruned:
            return candidates, upper_bounds, pruned
        if use_simulation:
            reference_refine(skeleton, graph, candidates, dual=True)


def oracle_stream(pattern, graph, limit):
    """The first *limit* isomorphisms of the oracle's plain search, plus probes."""
    counter = WorkCounter()
    search = _plain_isomorphisms(pattern, graph, label_candidates(pattern, graph), counter)
    return list(islice(search, limit)), counter.extensions


# --------------------------------------------------------------------------
# Cases, option combinations and golden work counters.
# --------------------------------------------------------------------------


def _cases():
    """(name, graph, pattern) triples covering paper examples and generators."""
    g1, g2 = build_paper_g1(), build_paper_g2()
    cases = [
        ("g1-q2", g1, build_q2()),
        ("g1-q3p2", g1, build_q3(p=2)),
        ("g1-q3p4", g1, build_q3(p=4)),
        ("g2-q4", g2, build_q4(p=2)),
    ]
    for dataset, queries in (("pokec", ("Q1", "Q2", "Q3")), ("yago2", ("Q4", "Q5"))):
        graph = benchmark_graph(dataset, scale=0.4, seed=5)
        for query in queries:
            pattern = paper_pattern(query, p=2) if query in ("Q3", "Q4") else paper_pattern(query)
            cases.append((f"{dataset}-{query}", graph, pattern))
    generated = benchmark_graph("synthetic", scale=0.3, seed=7)
    for position, pattern in enumerate(
        workload_patterns(generated, count=3, num_nodes=4, num_edges=5,
                          ratio_percent=30.0, num_negated=1, seed=13)
    ):
        cases.append((f"synthetic-w{position}", generated, pattern))
    return cases


CASES = _cases()
CASE_IDS = [name for name, _, _ in CASES]

SWITCHES = ("use_simulation", "use_potential", "early_exit", "use_locality")
OPTION_COMBOS = [
    DMatchOptions(**dict(zip(SWITCHES, bits)))
    for bits in itertools.product((True, False), repeat=len(SWITCHES))
]

GOLDEN_OPTIONS = {
    "default": dict(),
    "no-simulation": dict(use_simulation=False),
    "no-potential": dict(use_potential=False),
    "no-early-exit": dict(early_exit=False),
    "locality": dict(use_locality=True),
    "all-off": dict(use_simulation=False, use_potential=False, early_exit=False),
}

# (verifications, extensions, quantifier_checks, candidates_pruned) per case:
# the Enum oracle's, then QMatch's under each GOLDEN_OPTIONS entry.
GOLDEN = {
    "g1-q2": {
        "enum": (3, 19, 8, 0),
        "default": (0, 0, 2, 1),
        "no-simulation": (7, 6, 6, 5),
        "no-potential": (0, 0, 2, 1),
        "no-early-exit": (0, 0, 2, 1),
        "locality": (0, 0, 2, 1),
        "all-off": (7, 6, 6, 5),
    },
    "g1-q3p2": {
        "enum": (4, 40, 17, 0),
        "default": (1, 4, 7, 1),
        "no-simulation": (3, 12, 11, 10),
        "no-potential": (1, 4, 7, 1),
        "no-early-exit": (1, 4, 10, 1),
        "locality": (1, 4, 7, 1),
        "all-off": (3, 12, 16, 10),
    },
    "g1-q3p4": {
        "enum": (4, 40, 7, 0),
        "default": (0, 0, 0, 3),
        "no-simulation": (0, 0, 0, 12),
        "no-potential": (0, 0, 0, 3),
        "no-early-exit": (0, 0, 0, 3),
        "locality": (0, 0, 0, 3),
        "all-off": (0, 0, 0, 12),
    },
    "g2-q4": {
        "enum": (4, 46, 42, 0),
        "default": (0, 0, 4, 0),
        "no-simulation": (4, 17, 34, 5),
        "no-potential": (0, 0, 4, 0),
        "no-early-exit": (0, 0, 4, 0),
        "locality": (0, 0, 4, 0),
        "all-off": (4, 17, 42, 5),
    },
    "pokec-Q1": {
        "enum": (31, 378, 540, 0),
        "default": (0, 0, 16, 21),
        "no-simulation": (16, 107, 243, 155),
        "no-potential": (0, 0, 16, 21),
        "no-early-exit": (0, 0, 16, 21),
        "locality": (0, 0, 16, 21),
        "all-off": (16, 147, 411, 155),
    },
    "pokec-Q2": {
        "enum": (120, 1401, 766, 0),
        "default": (0, 0, 34, 86),
        "no-simulation": (34, 428, 428, 122),
        "no-potential": (0, 0, 34, 86),
        "no-early-exit": (0, 0, 34, 86),
        "locality": (0, 0, 34, 86),
        "all-off": (34, 428, 428, 122),
    },
    "pokec-Q3": {
        "enum": (159, 3013, 1940, 0),
        "default": (38, 151, 305, 2),
        "no-simulation": (156, 623, 541, 38),
        "no-potential": (38, 151, 305, 2),
        "no-early-exit": (38, 302, 955, 2),
        "locality": (38, 151, 305, 2),
        "all-off": (156, 1402, 1937, 38),
    },
    "yago2-Q4": {
        "enum": (22, 378, 239, 0),
        "default": (0, 0, 15, 5),
        "no-simulation": (15, 64, 128, 175),
        "no-potential": (0, 0, 15, 5),
        "no-early-exit": (0, 0, 15, 5),
        "locality": (0, 0, 15, 5),
        "all-off": (15, 75, 216, 175),
    },
    "yago2-Q5": {
        "enum": (66, 749, 680, 0),
        "default": (0, 0, 0, 0),
        "no-simulation": (66, 166, 232, 136),
        "no-potential": (0, 0, 0, 0),
        "no-early-exit": (0, 0, 0, 0),
        "locality": (0, 0, 0, 0),
        "all-off": (66, 304, 680, 136),
    },
    "synthetic-w0": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
    "synthetic-w1": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
    "synthetic-w2": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
}


# The same tuples while U(v, e) counted every child carrying the target's
# label and ran once.  Counting only children still in C(u') and iterating
# to a fixpoint may only remove work, so these stay as per-case ceilings on
# verifications and extensions.
LABEL_COUNT_GOLDEN = {
    "g1-q2": {
        "enum": (3, 19, 8, 0),
        "default": (3, 10, 8, 0),
        "no-simulation": (8, 10, 8, 4),
        "no-potential": (3, 10, 8, 0),
        "no-early-exit": (3, 10, 8, 0),
        "locality": (3, 10, 8, 0),
        "all-off": (8, 10, 8, 4),
    },
    "g1-q3p2": {
        "enum": (4, 40, 17, 0),
        "default": (3, 12, 11, 1),
        "no-simulation": (3, 12, 11, 10),
        "no-potential": (3, 12, 11, 1),
        "no-early-exit": (3, 12, 16, 1),
        "locality": (3, 12, 11, 1),
        "all-off": (3, 12, 16, 10),
    },
    "g1-q3p4": {
        "enum": (4, 40, 7, 0),
        "default": (0, 0, 0, 3),
        "no-simulation": (0, 0, 0, 12),
        "no-potential": (0, 0, 0, 3),
        "no-early-exit": (0, 0, 0, 3),
        "locality": (0, 0, 0, 3),
        "all-off": (0, 0, 0, 12),
    },
    "g2-q4": {
        "enum": (4, 46, 42, 0),
        "default": (4, 17, 34, 0),
        "no-simulation": (4, 17, 34, 5),
        "no-potential": (4, 17, 34, 0),
        "no-early-exit": (4, 17, 42, 0),
        "locality": (4, 17, 34, 0),
        "all-off": (4, 17, 42, 5),
    },
    "pokec-Q1": {
        "enum": (31, 378, 540, 0),
        "default": (37, 196, 501, 0),
        "no-simulation": (37, 196, 501, 134),
        "no-potential": (37, 196, 501, 0),
        "no-early-exit": (37, 236, 540, 0),
        "locality": (37, 196, 501, 0),
        "all-off": (37, 236, 540, 134),
    },
    "pokec-Q2": {
        "enum": (120, 1401, 766, 0),
        "default": (120, 1104, 766, 0),
        "no-simulation": (120, 1104, 766, 36),
        "no-potential": (120, 1104, 766, 0),
        "no-early-exit": (120, 1104, 766, 0),
        "locality": (120, 1104, 766, 0),
        "all-off": (120, 1104, 766, 36),
    },
    "pokec-Q3": {
        "enum": (159, 3013, 1940, 0),
        "default": (158, 627, 545, 0),
        "no-simulation": (158, 627, 545, 36),
        "no-potential": (158, 627, 545, 0),
        "no-early-exit": (158, 1406, 1939, 0),
        "locality": (158, 627, 545, 0),
        "all-off": (158, 1406, 1939, 36),
    },
    "yago2-Q4": {
        "enum": (22, 378, 239, 0),
        "default": (20, 79, 158, 0),
        "no-simulation": (26, 91, 158, 164),
        "no-potential": (20, 79, 158, 0),
        "no-early-exit": (20, 90, 231, 0),
        "locality": (20, 79, 158, 0),
        "all-off": (26, 102, 231, 164),
    },
    "yago2-Q5": {
        "enum": (66, 749, 680, 0),
        "default": (66, 166, 232, 0),
        "no-simulation": (66, 166, 232, 136),
        "no-potential": (66, 166, 232, 0),
        "no-early-exit": (66, 304, 680, 0),
        "locality": (66, 166, 232, 0),
        "all-off": (66, 304, 680, 136),
    },
    "synthetic-w0": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
    "synthetic-w1": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
    "synthetic-w2": {
        "enum": (0, 24, 0, 0),
        "default": (3, 3, 0, 0),
        "no-simulation": (3, 3, 0, 6),
        "no-potential": (3, 3, 0, 0),
        "no-early-exit": (3, 3, 0, 0),
        "locality": (3, 3, 0, 0),
        "all-off": (3, 3, 0, 6),
    },
}


COUNTER_FIELDS = ("verifications", "extensions", "quantifier_checks", "candidates_pruned")


def counter_tuple(counter: WorkCounter) -> tuple:
    # The only extras are DMatch's strategy decisions; pinned separately.
    assert all(key.startswith(("fixpoint.", "cutset.")) for key in counter.extras), counter.extras
    return tuple(getattr(counter, field) for field in COUNTER_FIELDS)


def work_split(work: dict) -> tuple:
    """An EXPLAIN ANALYZE ``work`` payload as ``(counter tuple, extras)``."""
    extras = {key: value for key, value in work.items() if key not in COUNTER_FIELDS}
    return tuple(work[field] for field in COUNTER_FIELDS), extras


def analyze_work(graph, pattern) -> tuple:
    """What ``QueryService(graph).explain(pattern, analyze=True)`` reports."""
    with QueryService(graph) as service:
        return work_split(service.explain(pattern, analyze=True).work)


@pytest.mark.parametrize("name,graph,pattern", CASES, ids=CASE_IDS)
class TestEngineAgainstOracle:
    def test_answers_equal_enum_under_every_option_combination(self, name, graph, pattern):
        expected = EnumMatcher().evaluate(pattern, graph)
        for options in OPTION_COMBOS:
            result = QMatch(options=options).evaluate(pattern, graph)
            assert result.answer == expected.answer, options
            assert result.positive_answer == expected.positive_answer, options

    def test_qmatch_prune_counts_equal_reference_filter(self, name, graph, pattern):
        # QMatch reports exactly the prunes of the candidate filter on Π(Q),
        # with and without the simulation pre-filter.
        for use_simulation in (True, False):
            options = DMatchOptions(use_simulation=use_simulation)
            result = QMatch(options=options).evaluate(pattern, graph)
            _, _, pruned = reference_candidate_index(pattern.pi(), graph, use_simulation)
            assert result.counter.candidates_pruned == pruned, use_simulation

    def test_work_counters_equal_golden(self, name, graph, pattern):
        golden = GOLDEN[name]
        enum = EnumMatcher().evaluate(pattern, graph)
        assert counter_tuple(enum.counter) == golden["enum"]
        for label, switches in GOLDEN_OPTIONS.items():
            result = QMatch(options=DMatchOptions(**switches)).evaluate(pattern, graph)
            assert counter_tuple(result.counter) == golden[label], label
        # Served work is oracle-pinned work: the service's one matching path
        # is the one these tuples pin.
        with QueryService(graph) as service:
            served = service.evaluate(pattern)
        assert counter_tuple(served.counter) == golden["default"], "served"
        # EXPLAIN ANALYZE reports that same work, not an estimate of it.
        assert analyze_work(graph, pattern)[0] == golden["default"], "analyze"

    def test_work_never_exceeds_the_label_count_bound(self, name, graph, pattern):
        # The pinned tuples above are exact; this checks they only ever
        # removed verifications and extensions relative to the label-count
        # bound, case by case and option by option.
        for label in ("enum", *GOLDEN_OPTIONS):
            verifications, extensions = GOLDEN[name][label][:2]
            ceiling = LABEL_COUNT_GOLDEN[name][label]
            assert verifications <= ceiling[0], label
            assert extensions <= ceiling[1], label

    def test_isomorphism_stream_replays_the_oracle_search(self, name, graph, pattern):
        skeleton = pattern.pi().stratified()
        counter = WorkCounter()
        stream = list(find_isomorphisms(skeleton, graph, limit=200, counter=counter))
        assert (stream, counter.extensions) == oracle_stream(skeleton, graph, 200)

    def test_dmatch_on_positive_part_equals_enum(self, name, graph, pattern):
        positive = pattern.pi()
        expected = EnumMatcher().evaluate(positive, graph).answer
        assert dmatch(positive, graph).answer == expected

    def test_candidate_index_equals_reference(self, name, graph, pattern):
        positive = pattern.pi()
        for use_simulation in (True, False):
            counter = WorkCounter()
            index = build_candidate_index(
                positive, graph, use_simulation=use_simulation, counter=counter
            )
            candidates, upper_bounds, pruned = reference_candidate_index(
                positive, graph, use_simulation
            )
            assert index.candidates == candidates
            assert index.upper_bounds == upper_bounds
            assert index.pruned == pruned == counter.candidates_pruned

    def test_simulation_relations_equal_reference(self, name, graph, pattern):
        skeleton = pattern.pi().stratified().graph
        assert simulation_relation(skeleton, graph) == reference_simulation(
            skeleton, graph, dual=False
        )
        assert dual_simulation_relation(skeleton, graph) == reference_simulation(
            skeleton, graph, dual=True
        )

    def test_refine_candidates_from_seeded_pools_equals_reference(self, name, graph, pattern):
        # Seeded with the full label pools, the refinement must reach the
        # maximal relation on its own (no signature pre-filter runs here).
        skeleton = pattern.pi().stratified().graph
        pools = {
            u: set(graph.nodes_with_label(skeleton.node_label(u)))
            for u in skeleton.nodes()
        }
        for dual in (False, True):
            assert refine_candidates(skeleton, graph, pools, dual=dual) == (
                reference_simulation(skeleton, graph, dual)
            )


# --------------------------------------------------------------------------
# The fixpoint strategy: tree-shaped patterns answered without a search.
# --------------------------------------------------------------------------


def reference_shape(pattern):
    """``"tree"``, ``"cutset"`` or ``"cyclic"``, from the definitions.

    ``"tree"``: the undirected pattern is a simple tree.  ``"cutset"``:
    removing the focus leaves a simple forest, every part of which the
    focus reaches.  A union-find over the edge list decides both; nothing
    here touches the engine's code.
    """
    nodes = list(pattern.nodes())
    edges = pattern.edges()
    root = {node: node for node in nodes}

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    def closes_a_cycle(edge_list):
        closed = False
        for edge in edge_list:
            first, second = find(edge.source), find(edge.target)
            closed = closed or first == second
            root[first] = second
        return closed

    focus = pattern.focus
    if closes_a_cycle(e for e in edges if focus not in (e.source, e.target)):
        return "cyclic"
    if any(edge.source == edge.target for edge in edges):
        return "cyclic"
    cyclic_through_focus = closes_a_cycle(
        e for e in edges if focus in (e.source, e.target)
    )
    if len({find(node) for node in nodes}) != 1:
        return "cyclic"
    return "cutset" if cyclic_through_focus else "tree"


def reference_decline_reason(pattern, graph, use_simulation=True):
    """:func:`fixpoint_decline_reason`'s verdict, from its definition.

    Pattern structure is read from the edge list and graph self-loops from
    plain adjacency; nothing here touches the compiled snapshot.
    """
    if not use_simulation:
        return "no_simulation"
    if reference_shape(pattern) == "cyclic":
        return "cyclic"
    nodes = list(pattern.nodes())
    edges = pattern.edges()
    loop_labels = set()
    for first, second in itertools.combinations(nodes, 2):
        if pattern.node_label(first) != pattern.node_label(second):
            continue
        joining = [
            edge.label
            for edge in edges
            if {edge.source, edge.target} == {first, second}
        ]
        if not joining:
            return "shared_label"
        loop_labels.update(joining)
    if any(
        graph.has_edge(node, node, label)
        for node in graph.nodes()
        for label in loop_labels
    ):
        return "self_loop"
    if any(
        edge.source != pattern.focus and not edge.quantifier.is_existential
        for edge in edges
    ):
        return "non_focus_quantifier"
    return None


def reference_strategy(pattern, graph, use_simulation=True):
    """One pass's ``(strategy, reason)``, as :func:`pass_strategy` states it."""
    reason = reference_decline_reason(pattern, graph, use_simulation)
    if reason is not None:
        return "search", reason
    return ("fixpoint" if reference_shape(pattern) == "tree" else "cutset"), None


# Strategy decisions of QMatch under default options, per case: Π(Q) first,
# then one per positified pattern that was evaluated.
STRATEGY_GOLDEN = {
    "g1-q2": {"fixpoint.answered": 1},
    "g1-q3p2": {"fixpoint.answered": 1, "fixpoint.declined.shared_label": 1},
    "g1-q3p4": {},
    "g2-q4": {"cutset.answered": 2},
    "pokec-Q1": {"cutset.answered": 1},
    "pokec-Q2": {"fixpoint.answered": 1},
    "pokec-Q3": {"fixpoint.answered": 1, "fixpoint.declined.shared_label": 1},
    "yago2-Q4": {"cutset.answered": 2},
    "yago2-Q5": {"cutset.answered": 3},
    "synthetic-w0": {"fixpoint.declined.shared_label": 1},
    "synthetic-w1": {"fixpoint.declined.shared_label": 1},
    "synthetic-w2": {"fixpoint.declined.shared_label": 1},
}


@pytest.mark.parametrize("name,graph,pattern", CASES, ids=CASE_IDS)
def test_strategy_counters_equal_golden(name, graph, pattern):
    assert QMatch().evaluate(pattern, graph).counter.extras == STRATEGY_GOLDEN[name]
    assert analyze_work(graph, pattern)[1] == STRATEGY_GOLDEN[name]
    # The ablation never answers from the fixpoint.
    extras = QMatch(options=DMatchOptions(use_simulation=False)).evaluate(
        pattern, graph
    ).counter.extras
    assert set(extras) <= {"fixpoint.declined.no_simulation"}


@pytest.mark.parametrize("tier", ["service", "fleet"])
@pytest.mark.parametrize("name,graph,pattern", CASES, ids=CASE_IDS)
def test_served_strategy_is_what_explain_reports(tier, name, graph, pattern):
    # The slow-query record and EXPLAIN ANALYZE's run name the strategy
    # plain EXPLAIN derives statically, on one service and through a fleet's
    # merged shard counters alike; empty only when the candidate filter left
    # nothing to decide.
    if tier == "service":
        served = QueryService(graph, slow_query_threshold=0.0)
    else:
        served = ShardedService(graph, num_shards=2, d=2, slow_query_threshold=0.0)
    with served:
        served.evaluate(pattern)
        (record,) = served.introspect()["slow_queries"]
        report = served.explain(pattern)
        analyzed = served.explain(pattern, analyze=True)
    assert (report.strategy, report.reason) == query_strategy(pattern, graph)
    explained = (
        report.strategy if report.reason is None
        else f"{report.strategy} ({report.reason})"
    )
    ran = explained if STRATEGY_GOLDEN[name] else ""
    assert record["strategy"] == ran
    assert analyzed.strategy_label == ran


def test_analyze_needs_a_qmatch_engine():
    # EXPLAIN ANALYZE reports a QMatch run's work; an Enum-backed service
    # has none to report, while plain EXPLAIN still names the shape.
    graph, pattern = build_paper_g1(), build_q2()
    with QueryService(graph, coordinator=penum_engine(num_workers=1)) as service:
        service.evaluate(pattern)
        report = service.explain(pattern)
        assert report.strategy is None and report.traffic["queries"] == 1
        with pytest.raises(ReproError, match="not QMatch"):
            service.explain(pattern, analyze=True)


# IncQMatch's work per negated edge under default options, in QMatch's
# order: (|AFF|, reused candidates, verifications, |removed|).  Every other
# case has no negated edge or an empty Π(Q) answer, so no IncQMatch run.
INCREMENTAL_GOLDEN = {
    "g1-q3p2": [(4, 6, 1, 1)],
    "g2-q4": [(4, 10, 0, 1)],
    "pokec-Q3": [(119, 203, 38, 37)],
    "yago2-Q4": [(12, 32, 0, 4)],
    "yago2-Q5": [(33, 71, 0, 22), (41, 71, 0, 12)],
}


@pytest.mark.parametrize("name,graph,pattern", CASES, ids=CASE_IDS)
def test_incremental_work_equals_golden(name, graph, pattern):
    runs = QMatch().evaluate(pattern, graph).incremental
    assert [
        (len(run.affected_area), run.reused_candidates, run.verifications, len(run.removed))
        for run in runs
    ] == INCREMENTAL_GOLDEN.get(name, [])


def test_incremental_bound_filter_reruns_on_every_edge():
    # a and c each follow two persons; y -bad-> troll is negated.  In
    # Π(Q⁺ᵉ) only one of a's followees keeps a bad edge (both of c's do).
    # IncQMatch re-runs the bound filter on every positive edge, the old
    # xo -[follow >= 2]-> y included, against the pools seeding and
    # refinement shrank: a's bound falls to 1 and a is pruned before it is
    # verified (search) or quantifier-checked (fixpoint).  Pinned here.
    graph = PropertyGraph("refilter")
    for node in ("a", "b1", "b2", "c", "d1", "d2"):
        graph.add_node(node, "person")
    graph.add_node("t", "troll")
    for source, target in (("a", "b1"), ("a", "b2"), ("c", "d1"), ("c", "d2")):
        graph.add_edge(source, target, "follow")
    for source in ("b1", "d1", "d2"):
        graph.add_edge(source, "t", "bad")
    pattern = (
        PatternBuilder("refilter")
        .focus("xo", "person")
        .node("y", "person")
        .node("z", "troll")
        .edge("xo", "y", "follow", at_least=2)
        .negated_edge("y", "z", "bad")
        .build()
    )
    assert EnumMatcher().evaluate_answer(pattern, graph) == {"a"}
    searched = QMatch(options=DMatchOptions(use_simulation=False)).evaluate(pattern, graph)
    (run,) = searched.incremental
    assert searched.answer == {"a"} and run.removed == {"c"}
    assert (len(run.affected_area), run.reused_candidates, run.verifications) == (5, 8, 1)
    answered = QMatch().evaluate(pattern, graph)
    assert answered.answer == {"a"}
    assert counter_tuple(answered.counter) == (0, 0, 3, 0)


def test_cutset_propagates_along_the_cycle():
    # xo -[p, = 1]-> a -q-> b -r-> c <-s- xo: a 4-cycle through the focus
    # whose middle node b no focus edge touches.  For v, conditioning
    # leaves a's pool whole and narrows c's to c1; only propagation
    # c -> b -> a drops a2 (its b2 reaches c2, which v does not point at),
    # so |Me(v, (xo, a))| is 1 and v is an answer.  A worklist that stops
    # one arc short counts 2 and loses v.
    graph = PropertyGraph("four-cycle")
    for node, label in (
        ("v", "person"), ("w", "person"), ("a1", "A"), ("a2", "A"),
        ("b1", "B"), ("b2", "B"), ("c1", "C"), ("c2", "C"),
    ):
        graph.add_node(node, label)
    for source, target, label in (
        ("v", "a1", "p"), ("v", "a2", "p"), ("v", "c1", "s"),
        ("w", "a2", "p"), ("w", "c2", "s"),
        ("a1", "b1", "q"), ("a2", "b2", "q"), ("b1", "c1", "r"), ("b2", "c2", "r"),
    ):
        graph.add_edge(source, target, label)
    pattern = QuantifiedGraphPattern(name="four-cycle")
    for node, label in (("xo", "person"), ("a", "A"), ("b", "B"), ("c", "C")):
        pattern.add_node(node, label)
    pattern.set_focus("xo")
    pattern.add_edge("xo", "a", "p", CountingQuantifier.exactly(1))
    pattern.add_edge("a", "b", "q")
    pattern.add_edge("b", "c", "r")
    pattern.add_edge("xo", "c", "s")
    assert EnumMatcher().evaluate_answer(pattern, graph) == {"v", "w"}
    counter = WorkCounter()
    outcome = dmatch(pattern, graph, counter=counter)
    assert outcome.answer == {"v", "w"}
    assert counter.extras == {"cutset.answered": 1} and counter.verifications == 0
    assert outcome.node_matches == evaluate_positive_by_enumeration(pattern, graph)[1]


def lemma12_case(quantifier):
    """xo -follow-> w -[like, *quantifier*]-> u over a graph with two albums.

    a follows b and c, d follows c; b likes one album, c likes both.  The
    bound filter keeps every pool non-empty (a non-focus candidate needs
    one child), so only Lemma 12 can decide before a strategy runs.
    """
    graph = PropertyGraph("lemma12")
    for node in ("a", "b", "c", "d"):
        graph.add_node(node, "person")
    for node in ("al1", "al2"):
        graph.add_node(node, "album")
    for source, target, label in (
        ("a", "b", "follow"), ("a", "c", "follow"), ("d", "c", "follow"),
        ("b", "al1", "like"), ("c", "al1", "like"), ("c", "al2", "like"),
    ):
        graph.add_edge(source, target, label)
    pattern = QuantifiedGraphPattern(name="lemma12")
    for node, label in (("xo", "person"), ("w", "person"), ("u", "album")):
        pattern.add_node(node, label)
    pattern.set_focus("xo")
    pattern.add_edge("xo", "w", "follow")
    pattern.add_edge("w", "u", "like", quantifier)
    return graph, pattern


@pytest.mark.parametrize(
    "quantifier,fires",
    [
        (CountingQuantifier.at_least(3), True),  # three albums; the graph has two
        (CountingQuantifier.more_than(2), True),  # three as well
        (CountingQuantifier.more_than(1), False),  # two: c likes both
        (CountingQuantifier.exactly(2), False),
        (CountingQuantifier.ratio_at_least(100.0), False),  # a ratio needs one child
    ],
    ids=["ge3", "gt2", "gt1", "eq2", "ratio"],
)
def test_lemma12_decides_before_any_strategy(quantifier, fires):
    # Lemma 12 asks each pattern node for as many candidates as its
    # in-edges' quantifiers need.  When it fires, DMatch returns before any
    # strategy: no decision extra, no quantifier check, no verification.
    graph, pattern = lemma12_case(quantifier)
    counter = WorkCounter()
    outcome = dmatch(pattern, graph, counter=counter)
    assert not outcome.index.is_empty()
    assert outcome.answer == EnumMatcher().evaluate_answer(pattern, graph)
    if fires:
        assert outcome.answer == set()
        assert counter.extras == {}
        assert counter.quantifier_checks == counter.verifications == 0
    else:
        assert outcome.answer == {"a", "d"}
        assert counter.extras == {"fixpoint.declined.non_focus_quantifier": 1}
        assert counter.verifications == 2


TREE_LABELS = ("person", "product")
TREE_EDGE_LABELS = ("follow", "recom")
FOCUS_QUANTIFIERS = (
    CountingQuantifier.existential(),
    CountingQuantifier.at_least(2),
    CountingQuantifier.more_than(1),
    CountingQuantifier.exactly(1),
    CountingQuantifier.exactly(2),
    CountingQuantifier.ratio_at_least(50.0),
    CountingQuantifier.ratio_exactly(50.0),
    CountingQuantifier.universal(),
)


@st.composite
def fixpoint_cases(draw):
    """A random graph plus a random tree pattern, sometimes bent out of shape.

    Node labels come from two values, so same-label pairs (adjacent or not)
    are common; graphs may carry self-loops; focus out-edges take any
    quantifier, an edge elsewhere (below or into the focus) sometimes a
    non-existential one.  An optional extra edge closes a cycle through the
    focus (a further out-edge, which may be counted, an in-edge, or a
    second edge beside a focus edge) or joins two random nodes (often a
    cycle that avoids the focus, or a doubled pair); an optional negated
    branch exercises the incremental path; and the pattern's positive edges
    are planted into the graph up to three times.  Hypothesis draws the seed and these
    switches; the seed draws the rest.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    with_loops, counted_below, negated = (draw(st.booleans()) for _ in range(3))
    extra_edge = draw(
        st.sampled_from((None, "anywhere", "focus_out", "focus_in", "focus_double"))
    )
    graph = PropertyGraph("fixpoint-graph")
    num_nodes = rng.randint(8, 16)
    for node in range(num_nodes):
        graph.add_node(node, "person" if rng.random() < 0.7 else "product")
    for _ in range(rng.randint(3 * num_nodes, 6 * num_nodes)):
        source = rng.randrange(num_nodes)
        target = rng.randrange(num_nodes)
        if source != target or (with_loops and rng.random() < 0.5):
            graph.add_edge(source, target, rng.choice(TREE_EDGE_LABELS))

    pattern = QuantifiedGraphPattern(name="hyp-tree")
    size = rng.randint(2, 5)
    for node in range(size):
        pattern.add_node(f"u{node}", rng.choice(TREE_LABELS))
    pattern.set_focus("u0")
    for node in range(1, size):
        parent = f"u{rng.randrange(node)}"
        child = f"u{node}"
        source, target = (parent, child) if rng.random() < 0.65 else (child, parent)
        if source == "u0":
            quantifier = rng.choice(FOCUS_QUANTIFIERS)
        elif counted_below and rng.random() < 0.5:
            quantifier = rng.choice(FOCUS_QUANTIFIERS[1:])
        else:
            quantifier = CountingQuantifier.existential()
        pattern.add_edge(source, target, rng.choice(TREE_EDGE_LABELS), quantifier)
    others = [f"u{node}" for node in range(1, size)]
    if extra_edge == "anywhere":
        first, second = rng.sample(["u0", *others], 2)
        pattern.add_edge(first, second, rng.choice(TREE_EDGE_LABELS))
    elif extra_edge == "focus_out":
        pattern.add_edge(
            "u0", rng.choice(others), rng.choice(TREE_EDGE_LABELS),
            rng.choice(FOCUS_QUANTIFIERS) if rng.random() < 0.5 else None,
        )
    elif extra_edge == "focus_in":
        pattern.add_edge(rng.choice(others), "u0", rng.choice(TREE_EDGE_LABELS))
    elif extra_edge == "focus_double":
        beside = rng.choice(
            [edge for edge in pattern.edges() if "u0" in (edge.source, edge.target)]
        )
        other_label = next(
            label for label in TREE_EDGE_LABELS if label != beside.label
        )
        if rng.random() < 0.5:
            pattern.add_edge(
                beside.source, beside.target, other_label,
                rng.choice(FOCUS_QUANTIFIERS)
                if beside.source == "u0" and rng.random() < 0.5 else None,
            )
        else:
            pattern.add_edge(beside.target, beside.source, rng.choice(TREE_EDGE_LABELS))
    if negated:
        pattern.add_node("neg", rng.choice(TREE_LABELS))
        pattern.add_edge(
            f"u{rng.randrange(size)}", "neg", rng.choice(TREE_EDGE_LABELS),
            CountingQuantifier.negation(),
        )
    # A random graph rarely holds a given cycle: copy the pattern's
    # positive edges onto up to three injective label-preserving images.
    for _ in range(rng.randint(0, 3)):
        image = {}
        for node in pattern.nodes():
            free = sorted(
                graph.nodes_with_label(pattern.node_label(node)) - set(image.values())
            )
            if not free:
                break
            image[node] = rng.choice(free)
        else:
            for edge in pattern.edges():
                if not edge.is_negated:
                    graph.add_edge(image[edge.source], image[edge.target], edge.label)
    try:
        pattern.validate()
    except PatternValidationError:
        assume(False)
    return graph, pattern


@given(case=fixpoint_cases())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_fixpoint_strategy_equals_enum_and_declines_exactly_when_a_precondition_fails(case):
    graph, pattern = case
    expected = EnumMatcher().evaluate(pattern, graph)
    for options in OPTION_COMBOS:
        for incremental in (True, False):
            result = QMatch(use_incremental=incremental, options=options).evaluate(
                pattern, graph
            )
            assert result.answer == expected.answer, (options, incremental)
            assert result.positive_answer == expected.positive_answer, options
            for stats in result.incremental:
                assert stats.verifications <= len(stats.affected_area)

    # EXPLAIN's static decision: the weakest pass names the query.
    passes = [pattern.pi()] + [positified for _, positified in pattern.positified_pi_patterns()]
    decisions = [reference_strategy(positive, graph) for positive in passes]
    declined = [decision for decision in decisions if decision[0] == "search"]
    if declined:
        assert query_strategy(pattern, graph) == declined[0]
    elif ("cutset", None) in decisions:
        assert query_strategy(pattern, graph) == ("cutset", None)
    else:
        assert query_strategy(pattern, graph) == ("fixpoint", None)

    # The strategy decision on Π(Q), and Q(u, G) when no search runs.
    positive = pattern.pi()
    for use_simulation in (True, False):
        counter = WorkCounter()
        outcome = dmatch(
            positive, graph, DMatchOptions(use_simulation=use_simulation),
            counter=counter,
        )
        if not counter.extras:
            # Decided before any strategy: no candidates, or Lemma 12.
            assert outcome.index.is_empty() or not outcome.index.global_prune_check()
            continue
        strategy, reason = reference_strategy(positive, graph, use_simulation)
        if reason is None:
            assert counter.extras == {f"{strategy}.answered": 1}
            assert counter.verifications == counter.extensions == 0
            _, node_matches = evaluate_positive_by_enumeration(positive, graph)
            assert outcome.node_matches == node_matches
        else:
            assert counter.extras == {f"fixpoint.declined.{reason}": 1}


def reference_degree_blocks(graph, num_fragments, seed):
    """The ``"degree"`` base partition with weights read from graph adjacency."""
    nodes = list(graph.nodes())
    ensure_rng(seed).shuffle(nodes)
    weighted = sorted(
        ((1 + graph.out_degree(node) + graph.in_degree(node), node) for node in nodes),
        key=lambda pair: pair[0],
        reverse=True,
    )
    blocks = [set() for _ in range(num_fragments)]
    loads = [0] * num_fragments
    for weight, node in weighted:
        lightest = min(range(num_fragments), key=lambda i: (loads[i], i))
        blocks[lightest].add(node)
        loads[lightest] += weight
    return blocks


class TestPartitionDegreeStrategy:
    def test_degree_blocks_cover_all_nodes_once(self, small_pokec):
        blocks = base_partition(small_pokec, 4, seed=3, strategy="degree")
        seen = set()
        for block in blocks:
            assert seen.isdisjoint(block)
            seen |= block
        assert seen == set(small_pokec.nodes())

    def test_degree_strategy_balances_degree_weight(self, small_pokec):
        blocks = base_partition(small_pokec, 4, seed=3, strategy="degree")

        def load(block):
            return sum(
                1 + small_pokec.out_degree(n) + small_pokec.in_degree(n) for n in block
            )

        loads = sorted(load(block) for block in blocks)
        assert loads[0] > 0
        # LPT keeps the spread tight: max load within 25% of min load.
        assert loads[-1] <= loads[0] * 1.25

    def test_degree_strategy_equals_reference(self, small_pokec):
        blocks = base_partition(small_pokec, 3, seed=11, strategy="degree")
        assert blocks == reference_degree_blocks(small_pokec, 3, seed=11)

    def test_dpar_with_degree_strategy_is_complete_and_covering(self, small_pokec):
        partition = DPar(d=1, seed=2, strategy="degree").partition(small_pokec, 3)
        assert partition.is_complete()
        assert partition.is_covering()

    def test_parallel_answer_unchanged_by_degree_strategy(self):
        from repro.parallel import PQMatch

        graph = build_paper_g1()
        pattern = build_q3(p=2)
        sequential = QMatch().evaluate_answer(pattern, graph)
        parallel = PQMatch(num_workers=2, d=2, seed=0, strategy="degree")
        assert parallel.evaluate_answer(pattern, graph) == sequential


class TestPartitionBfs:
    """The CSR d-hop BFS must build complete, covering partitions.

    ``is_covering`` re-expands every owned node with the plain adjacency BFS
    (``nodes_within_hops``), so it checks the compiled expansion
    independently.
    """

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_dpar_is_complete_and_covering(self, small_pokec, d):
        partition = DPar(d=d, seed=9).partition(small_pokec, 3)
        assert partition.is_complete()
        assert partition.is_covering()
        owned = [fragment.owned_nodes for fragment in partition.fragments]
        assert sum(map(len, owned)) == small_pokec.num_nodes

    def test_extend_keeps_ownership_and_covers_the_larger_radius(self, small_pokec):
        partitioner = DPar(d=1, seed=4)
        base = partitioner.partition(small_pokec, 3)
        extended = partitioner.extend(base, 2)
        for before, after in zip(base.fragments, extended.fragments):
            assert after.owned_nodes == before.owned_nodes
            assert before.node_set <= after.node_set
            for node in after.owned_nodes:
                assert nodes_within_hops(small_pokec, node, 2) <= after.node_set
        assert extended.is_covering() and extended.is_complete()

    def test_csr_bfs_matches_dict_bfs_on_benchmark_graph(self, small_pokec):
        snapshot = GraphIndex.for_graph(small_pokec)
        merged = snapshot.neighborhoods()
        scratch = bytearray(snapshot.num_nodes)
        for node in small_pokec.nodes():
            for hops in (0, 1, 2):
                reached = merged.nodes_within_hops_ids(
                    snapshot.node_id(node), hops, visited=scratch
                )
                assert snapshot.to_nodes(reached) == nodes_within_hops(
                    small_pokec, node, hops
                )


class TestStaleGraphSafety:
    def test_mutating_the_graph_between_queries_stays_correct(self):
        """for_graph must transparently rebuild after mutations."""
        graph = build_paper_g1()
        pattern = build_q3(p=2)
        first = QMatch().evaluate_answer(pattern, graph)
        assert first == {"x2"}  # Example 3 of the paper: x3 is negated away.
        # x3's follow-edge to the bad-rating reviewer disappears, so x3 no
        # longer touches the negated branch and joins the answer.
        graph.remove_edge("x3", "v4", "follow")
        second = QMatch().evaluate_answer(pattern, graph)
        assert second == EnumMatcher().evaluate_answer(pattern, graph) == {"x2", "x3"}

    def test_match_context_recompiles_after_mutation(self):
        """A context must not enumerate from stale rows."""
        graph = build_paper_g1()
        pattern = build_q3(p=2).pi().stratified()
        context = MatchContext(pattern, graph)
        before = list(context.isomorphisms())
        assert before  # sanity: the pattern matches the example graph
        graph.remove_edge("x3", "v4", "follow")
        after = list(context.isomorphisms())
        fresh, _ = oracle_stream(pattern, graph, limit=None)
        assert after == fresh

    def test_empty_label_pattern(self):
        graph = build_paper_g1()
        pattern = (
            PatternBuilder()
            .focus("x", "person")
            .node("m", "missing_label")
            .edge("x", "m", "follow")
            .build()
        )
        index = build_candidate_index(pattern, graph, use_simulation=False)
        assert index.is_empty()


class TestRefineCandidatesSeededPools:
    """`refine_candidates` must honour caller-supplied pools verbatim.

    Unlike the label-derived seeds of the full simulation entry points, the
    pools here may disagree with the pattern's node labels or contain nodes
    the graph has never seen.
    """

    def test_label_inconsistent_pools_are_refined_by_membership(self):
        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b", "e")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")
        pattern.add_node("w", "C")  # label absent from the graph
        pattern.add_edge("u", "w", "e")
        pools = {"u": {"a"}, "w": {"b"}}
        for dual in (False, True):
            refined = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()}, dual=dual
            )
            # Support is membership in the supplied pool, not label agreement:
            # "b" supports "a" even though its label B is not the pattern's C.
            assert refined == {"u": {"a"}, "w": {"b"}}

    def test_unknown_members_of_requirement_free_nodes_survive(self):
        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")  # no pattern edges: never probed
        pools = {"u": {"a", "ghost"}}
        for dual in (False, True):
            refined = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()}, dual=dual
            )
            assert refined == {"u": {"a", "ghost"}}

    def test_unknown_members_of_constrained_nodes_raise(self):
        from repro.utils.errors import NodeNotFoundError

        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b", "e")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")
        pattern.add_node("w", "B")
        pattern.add_edge("u", "w", "e")
        pools = {"u": {"a", "ghost"}, "w": {"b"}}
        with pytest.raises(NodeNotFoundError):
            refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()}, dual=True
            )
