"""IncQMatch: incremental evaluation of positified patterns (paper Section 4.2).

When a QGP ``Q`` has negated edges, its answer is

``Q(xo, G) = Π(Q)(xo, G) \\ ⋃_{e ∈ E⁻Q} Π(Q⁺ᵉ)(xo, G)``.

Computing each ``Π(Q⁺ᵉ)`` from scratch wastes the work already done for
``Π(Q)``: ``Π(Q⁺ᵉ)`` only *adds* constraints (the positified edge and the
nodes it connects), so ``Π(Q⁺ᵉ)(u, G) ⊆ Π(Q)(u, G)`` for every pattern node
``u`` that exists in both.  IncQMatch therefore works *incrementally, in
response to a change in the query* (not, as in classical incremental matching,
a change in the graph):

* it re-verifies only the cached focus matches ``Π(Q)(xo, G)``;
* candidate pools of pattern nodes shared with ``Π(Q)`` start from the cached
  candidate sets instead of the whole graph;
* pattern nodes introduced by the positified edge get fresh label candidates,
  restricted to the neighbourhood of the cached matches;
* both the seeded refinement and the re-verification enumeration run over the
  compiled :class:`repro.index.GraphIndex` snapshot — the
  :class:`MatchContext` built inside :func:`repro.matching.dmatch.dmatch`
  intersects the compiled per-label row stores instead of copying adjacency
  sets per probe.

The *affected area* ``AFF`` of the paper is tracked explicitly, and the number
of verifications performed is guaranteed (and asserted in tests) to be at most
``|AFF|`` — the optimality statement of Proposition 6.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.graph.simulation import refine_candidates
from repro.index.snapshot import GraphIndex
from repro.matching.candidates import CandidateIndex, apply_quantifier_bound_filter
from repro.matching.dmatch import (
    DMatchOptions,
    DMatchOutcome,
    dmatch,
    fixpoint_decline_reason,
)
from repro.matching.result import IncrementalStats
from repro.patterns.qgp import PatternEdge, QuantifiedGraphPattern
from repro.utils.counters import WorkCounter

__all__ = ["inc_qmatch"]

NodeId = Hashable


def _incremental_candidate_index(
    positified: QuantifiedGraphPattern,
    graph: PropertyGraph,
    cached: DMatchOutcome,
) -> Tuple[CandidateIndex, Set[NodeId], int]:
    """Candidate index for ``Π(Q⁺ᵉ)`` seeded from the cached ``Π(Q)`` run.

    Returns ``(index, new_pattern_nodes, reused)`` where *reused* counts how
    many candidate entries were taken from the cache rather than recomputed.

    The seeded refinement and the upper-bound probes run over the compiled
    :class:`repro.index.GraphIndex` snapshot.  ``GraphIndex.for_graph``
    consults the graph's mutation counter, so a snapshot left over from the
    ``Π(Q)`` evaluation is reused when the graph is unchanged and rebuilt
    (never silently trusted) when it is stale.
    """
    assert cached.index is not None
    cached_candidates = cached.index.candidates
    index = CandidateIndex(pattern=positified, graph=graph)
    graph_index = GraphIndex.for_graph(graph)
    new_nodes: Set[NodeId] = set()
    reused = 0
    for pattern_node in positified.nodes():
        if pattern_node in cached_candidates:
            # The positified pattern only adds constraints, so the cached
            # candidate pool is still a superset of the true candidates.
            index.candidates[pattern_node] = set(cached_candidates[pattern_node])
            reused += len(cached_candidates[pattern_node])
        else:
            new_nodes.add(pattern_node)
            index.candidates[pattern_node] = graph_index.nodes_with_label(
                positified.node_label(pattern_node)
            )

    # Refine the seeded pools against the structure of the positified pattern
    # (a dual-simulation fixpoint started from the cached pools, not from the
    # whole graph).  This is the incremental analogue of the FilterCandidate
    # step and is what keeps the number of re-verified candidates small.
    index.candidates = refine_candidates(
        positified.stratified().graph, graph, index.candidates, dual=True
    )

    # Re-apply the quantifier upper-bound filter over every positive edge:
    # the seeding and the refinement shrank the pools the old edges'
    # bounds were counted against, and a bound counted against a smaller
    # pool is still an upper bound.
    for edge in positified.edges():
        apply_quantifier_bound_filter(index, edge, graph_index)
    return index, new_nodes, reused


def inc_qmatch(
    original: QuantifiedGraphPattern,
    negated_edge: PatternEdge,
    positified_pi: QuantifiedGraphPattern,
    graph: PropertyGraph,
    cached: DMatchOutcome,
    options: DMatchOptions = DMatchOptions(),
    counter: Optional[WorkCounter] = None,
) -> Tuple[Set[NodeId], IncrementalStats]:
    """Compute ``Π(Q⁺ᵉ)(xo, G)`` incrementally from the cached ``Π(Q)`` results.

    Parameters
    ----------
    original:
        The full pattern ``Q`` (used only for reporting).
    negated_edge:
        The negated edge ``e`` being positified.
    positified_pi:
        ``Π(Q⁺ᵉ)`` — computed by the caller (QMatch) via
        :meth:`QuantifiedGraphPattern.positified_pi_patterns`.
    cached:
        The :class:`DMatchOutcome` of evaluating ``Π(Q)``.

    Returns
    -------
    (answer, stats):
        *answer* is ``Π(Q⁺ᵉ)(xo, G)``; *stats* records the affected area and
        the number of verifications actually performed.
    """
    counter = counter if counter is not None else WorkCounter()
    stats = IncrementalStats(edge=str(negated_edge))

    if not cached.answer:
        # Π(Q) had no match, so neither does the more constrained Π(Q⁺ᵉ).
        return set(), stats

    index, new_nodes, reused = _incremental_candidate_index(positified_pi, graph, cached)
    stats.reused_candidates = reused

    # The affected area: cached matches of the focus (they must be
    # re-verified), the cached matches of the old endpoint of every new edge,
    # and the candidates of the pattern nodes introduced by positification.
    focus = positified_pi.focus
    stats.affected_area.update(cached.answer)
    old_edge_keys = {e.key for e in cached.index.pattern.edges()} if cached.index else set()
    for edge in positified_pi.edges():
        if edge.key in old_edge_keys:
            continue
        for endpoint in (edge.source, edge.target):
            if endpoint in new_nodes:
                stats.affected_area.update(index.candidates.get(endpoint, ()))
            else:
                stats.affected_area.update(cached.node_matches.get(endpoint, ()))

    graph_index = GraphIndex.for_graph(graph)
    if fixpoint_decline_reason(positified_pi, graph_index, options) is None:
        # Π(Q⁺ᵉ) qualifies for DMatch's fixpoint or cutset answer, which
        # needs arc-consistent pools: one final refinement of the seeded
        # pools (the bound filter above may have pruned without one), with
        # the focus restricted to the cached answer — the only candidates
        # asked.
        index.candidates[focus] &= cached.answer
        index.candidates = refine_candidates(
            positified_pi.stratified().graph, graph, index.candidates, dual=True
        )
        index.at_fixpoint = True

    before = counter.verifications
    outcome = dmatch(
        positified_pi,
        graph,
        options=options,
        index=index,
        counter=counter,
        focus_restriction=set(cached.answer),
    )
    stats.verifications = counter.verifications - before
    stats.removed = set(outcome.answer)
    return set(outcome.answer), stats
