"""Selection and pruning heuristics for the DMatch search (paper Appendix B).

DMatch does not visit candidate children in arbitrary order: at every
extension step it ranks the candidates of the next pattern node by a
*potential* score

``potential(v') = (1 + |P(v') ∩ C(u)| / |C(u)|) · Σ_{e=(u',u'')} U(v', e) / p_e``

that favours candidates which (a) are children of many other candidates —
verifying them benefits future backtracking — and (b) have head-room with
respect to the quantifier thresholds of their own outgoing edges, so they are
more likely to be matches themselves.  The functions here compute that score
and produce the per-pattern-node candidate orderings consumed by the generic
search engine.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.graph.digraph import PropertyGraph
from repro.matching.candidates import CandidateIndex
from repro.patterns.qgp import QuantifiedGraphPattern

__all__ = ["candidate_potential", "potential_ordering"]

NodeId = Hashable


def candidate_potential(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    index: CandidateIndex,
    pattern_node: NodeId,
    candidate: NodeId,
) -> float:
    """The potential score of *candidate* as a match of *pattern_node*."""
    # Term 1: how many candidate parents (across all incoming pattern edges)
    # could benefit from verifying this candidate.
    parent_bonus = 0.0
    for edge in pattern.in_edges(pattern_node):
        parent_candidates = index.candidate_set(edge.source)
        if not parent_candidates:
            continue
        parents_in_graph = graph.predecessors(candidate, edge.label)
        overlap = len(parents_in_graph & parent_candidates)
        parent_bonus = max(parent_bonus, overlap / len(parent_candidates))

    # Term 2: head-room of the candidate w.r.t. its own outgoing quantifiers.
    headroom = 0.0
    out_edges = pattern.out_edges(pattern_node)
    if out_edges:
        for edge in out_edges:
            quantifier = edge.quantifier
            if quantifier.is_negation:
                continue
            bound = index.upper_bound(edge.key, candidate)
            total = graph.out_degree(candidate, edge.label)
            threshold = max(quantifier.numeric_threshold(total), 1)
            headroom += bound / threshold
    else:
        headroom = 1.0
    return (1.0 + parent_bonus) * headroom


def potential_ordering(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    index: CandidateIndex,
) -> Dict[NodeId, List[NodeId]]:
    """Per-pattern-node candidate lists sorted by decreasing potential.

    Computes exactly :func:`candidate_potential`'s score (same float
    operations in the same order), with the per-candidate work hoisted:
    pattern in/out edge lists and their compiled row stores
    (:meth:`repro.index.GraphIndex.compiled_rows`) are resolved once per
    pattern node, the parent overlap is one C-level ``len(row & parents)``
    and the out-degree is the length of the candidate's outgoing row.
    """
    from repro.index.snapshot import GraphIndex

    label_rows = GraphIndex.for_graph(graph).label_rows
    ordering: Dict[NodeId, List[NodeId]] = {}
    upper_bounds = index.upper_bounds
    for pattern_node in pattern.nodes():
        pool = index.candidate_set(pattern_node)
        # Hoisted per-pattern-node state: (parent-row lookup, parent pool,
        # pool size) per incoming edge; per positive outgoing edge its
        # child-row lookup and a total -> max(threshold, 1) memo (a ratio
        # quantifier's threshold depends on the candidate's degree).
        in_specs = []
        for edge in pattern.in_edges(pattern_node):
            parent_candidates = index.candidate_set(edge.source)
            if not parent_candidates:
                continue
            in_specs.append(
                (label_rows(True, edge.label).get, parent_candidates, len(parent_candidates))
            )
        out_edges = pattern.out_edges(pattern_node)
        out_specs = [
            (edge.key, edge.quantifier.numeric_threshold, label_rows(False, edge.label).get, {})
            for edge in out_edges
            if not edge.quantifier.is_negation
        ]
        scored = []
        for candidate in pool:
            parent_bonus = 0.0
            for parent_row, parent_candidates, parent_count in in_specs:
                row = parent_row(candidate)
                if row is None:
                    continue
                bonus = len(row & parent_candidates) / parent_count
                if bonus > parent_bonus:
                    parent_bonus = bonus
            headroom = 0.0
            if out_edges:
                for edge_key, numeric_threshold, child_row, thresholds in out_specs:
                    bound = upper_bounds.get((edge_key, candidate), 0)
                    row = child_row(candidate)
                    total = len(row) if row is not None else 0
                    threshold = thresholds.get(total)
                    if threshold is None:
                        threshold = thresholds[total] = max(numeric_threshold(total), 1)
                    headroom += bound / threshold
            else:
                headroom = 1.0
            scored.append(((1.0 + parent_bonus) * headroom, candidate))
        scored.sort(key=lambda pair: (-pair[0], str(pair[1])))
        ordering[pattern_node] = [candidate for _, candidate in scored]
    return ordering
