"""Candidate computation and filtering (``FilterCandidate`` of QMatch).

QMatch initialises, for every pattern node ``u``, a candidate set ``C(u)`` and
the auxiliary structures the paper calls ``X``, ``c`` and ``U`` (Section 4.1):

* ``U(v, e)`` — an upper bound on ``|Me(vx, v, Q)|``, initialised to
  ``|Me(v)|`` (the number of ``v``'s children via an edge with ``e``'s label)
  and here immediately sharpened to count only children carrying the right
  node label;
* candidates whose upper bound already fails a positive quantifier are removed
  before the search starts (the paper's Example 5: ``x1`` is dropped because
  ``U(x1, (xo, z1)) = 1 < 2``);
* optionally, the candidate sets are intersected with the maximal dual
  simulation relation (Lemma 13), a polynomial pre-filter that is sound for
  isomorphism;
* finally the global pruning rule of Lemma 12 can conclude that the focus has
  no match at all when some pattern node retains fewer candidates than the
  largest numeric threshold on its incoming edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set

from repro.graph.digraph import PropertyGraph
from repro.graph.simulation import dual_simulation_relation
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter

__all__ = ["CandidateIndex", "build_candidate_index", "apply_quantifier_bound_filter"]

NodeId = Hashable


@dataclass
class CandidateIndex:
    """Filtered candidate sets plus the upper-bound structures of QMatch."""

    pattern: QuantifiedGraphPattern
    graph: PropertyGraph
    candidates: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    # (pattern edge key, graph node) -> upper bound U(v, e)
    upper_bounds: Dict[tuple, int] = field(default_factory=dict)
    pruned: int = 0

    def candidate_set(self, pattern_node: NodeId) -> Set[NodeId]:
        return self.candidates.get(pattern_node, set())

    def is_empty(self) -> bool:
        """True when some pattern node has no candidate left (no match exists)."""
        return any(not members for members in self.candidates.values())

    def upper_bound(self, edge_key: tuple, graph_node: NodeId) -> int:
        return self.upper_bounds.get((edge_key, graph_node), 0)

    def global_prune_check(self) -> bool:
        """Lemma 12: the focus can only have a match if every pattern node keeps
        at least ``pm`` candidates, where ``pm`` is the largest numeric
        threshold over the positive quantifiers of its incoming edges.

        Returns ``True`` when the check passes (a match is still possible).
        """
        for node in self.pattern.nodes():
            required = 1
            for edge in self.pattern.in_edges(node):
                quantifier = edge.quantifier
                if quantifier.is_negation or quantifier.is_ratio:
                    continue
                if quantifier.op in (">=", ">", "="):
                    threshold = quantifier.numeric_threshold(0)
                    if quantifier.op == ">":
                        threshold += 1
                    required = max(required, threshold)
            if len(self.candidates.get(node, ())) < required:
                return False
        return True


def apply_quantifier_bound_filter(index: CandidateIndex, edge, graph_index) -> None:
    """Apply the ``U(v, e)`` upper-bound filter of one pattern edge to *index*.

    Records the bound for every candidate of ``edge.source``, keeps the ones
    whose quantifier may still hold, and counts the rest in ``index.pruned``.
    The same routine serves the full build (:func:`build_candidate_index`)
    and the incremental rebuild around positified edges
    (:mod:`repro.matching.incremental`): the bound walks one CSR row of the
    compiled *graph_index* and the total comes from its degree arrays.
    Negated edges are skipped (they constrain via subtraction, not counting).
    """
    quantifier = edge.quantifier
    if quantifier.is_negation:
        return
    edge_key = edge.key
    target_label = index.pattern.node_label(edge.target)
    survivors: Set[NodeId] = set()
    edge_label_id = graph_index.edge_label_id(edge.label)
    target_label_id = graph_index.node_label_id(target_label)
    for candidate in index.candidates.get(edge.source, ()):
        candidate_id = graph_index.node_id(candidate)
        if edge_label_id < 0 or candidate_id < 0:
            bound = 0
            total = 0
        else:
            bound = graph_index.count_out_with_label(
                candidate_id, edge_label_id, target_label_id
            )
            total = graph_index.out_degree_ids(candidate_id, edge_label_id)
        index.upper_bounds[(edge_key, candidate)] = bound
        if quantifier.may_still_hold(bound, total):
            survivors.add(candidate)
        else:
            index.pruned += 1
    index.candidates[edge.source] = survivors


def build_candidate_index(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    use_simulation: bool = True,
    counter: Optional[WorkCounter] = None,
) -> CandidateIndex:
    """Build filtered candidate sets for a *positive* pattern.

    The filters applied, in order:

    1. node-label candidates,
    2. (optional) dual graph simulation on the stratified pattern,
    3. per-edge quantifier upper bounds ``U(v, e)``.

    Every filter is sound for isomorphism, so the filtered sets still contain
    every true match; tests assert this against the reference engine.  All
    three resolve through the compiled :class:`repro.index.GraphIndex`
    snapshot: label index, CSR simulation fixpoint, CSR-row bound walks and
    degree arrays.
    """
    from repro.index.snapshot import GraphIndex

    index = CandidateIndex(pattern=pattern, graph=graph)
    graph_index = GraphIndex.for_graph(graph)
    if use_simulation:
        index.candidates = dual_simulation_relation(pattern.stratified().graph, graph)
    else:
        index.candidates = {
            u: graph_index.nodes_with_label(pattern.node_label(u))
            for u in pattern.nodes()
        }
    for edge in pattern.edges():
        apply_quantifier_bound_filter(index, edge, graph_index)

    if counter is not None:
        counter.candidates_pruned += index.pruned
    return index
