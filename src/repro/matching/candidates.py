"""Candidate computation and filtering (``FilterCandidate`` of QMatch).

QMatch initialises, for every pattern node ``u``, a candidate set ``C(u)`` and
the auxiliary structures the paper calls ``X``, ``c`` and ``U`` (Section 4.1):

* ``U(v, e)`` for ``e = (u, u')`` — an upper bound on ``|Me(vx, v, Q)|``.
  The paper initialises it to ``|Me(v)|``, the number of ``v``'s children via
  an edge with ``e``'s label; here it counts only the children *still in*
  ``C(u')``: ``U(v, e) = |succₑ(v) ∩ C(u')|``, one C-level ``len(row & pool)``
  over the compiled frozenset rows.  Every member of ``Me(vx, v, Q)`` is a
  distinct node of ``C(u')``, so it is still an upper bound;
* a focus candidate whose bound already fails a positive quantifier on one of
  its edges is removed before the search starts (the paper's Example 5:
  ``x1`` is dropped because ``U(x1, (xo, z1)) = 1 < 2``).  A candidate of
  any other pattern node is removed when its bound is 0 — it has no child in
  ``C(u')``, so no isomorphism uses it.  (Dropping a non-focus node that
  *does* occur in isomorphisms would shrink the counts ``Me`` of its
  parents, which the semantics take over every isomorphism of ``Qπ``);
* optionally, the candidate sets are intersected with the maximal dual
  simulation relation (Lemma 13), a polynomial pre-filter that is sound for
  isomorphism;
* the bound filter and the simulation worklist alternate until a pass prunes
  nothing: dropping a node lowers its parents' bounds and support, so one
  prune can enable the next;
* finally the global pruning rule of Lemma 12 can conclude that the focus has
  no match at all when some pattern node retains fewer candidates than the
  largest numeric threshold on its incoming edges.

Every step keeps each pool a superset of the nodes that pattern node takes
in any isomorphism of ``Qπ`` whose focus is still a candidate, so the search
over the filtered pools sees exactly the isomorphisms the semantics count
for every surviving focus candidate.

With the simulation on, the result is a completed fixpoint
(:attr:`CandidateIndex.at_fixpoint`): arc consistent over every positive
edge.  On a pattern whose undirected shape is a tree, with injectivity
implied, that superset is exact — every pooled node occurs in some
isomorphism, and ``U(vx, e)`` of a focus edge is the count itself — so
DMatch answers such a pattern from the pools without a search.  When the
pattern's cycles all run through the focus, the pools are the starting
point DMatch conditions on each focus candidate, again without a search
(see :func:`repro.matching.dmatch.fixpoint_decline_reason`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set

from repro.graph.digraph import PropertyGraph
from repro.graph.simulation import dual_simulation_relation, refine_candidates
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
    # True when the pools are a completed dual-simulation + ``U(v, e)``
    # fixpoint: arc consistent over every positive pattern edge, which is
    # what lets DMatch answer a tree-shaped pattern without a search.
    at_fixpoint: bool = False

    def candidate_set(self, pattern_node: NodeId) -> Set[NodeId]:
        return self.candidates.get(pattern_node, set())

    def is_empty(self) -> bool:
        """True when some pattern node has no candidate left (no match exists)."""
        return any(not members for members in self.candidates.values())

    def upper_bound(self, edge_key: tuple, graph_node: NodeId) -> int:
        return self.upper_bounds.get((edge_key, graph_node), 0)

    def global_prune_check(self) -> bool:
        """Lemma 12: the focus can only have a match if every pattern node keeps
        at least ``pm`` candidates, where ``pm`` is the most children any
        quantifier of its incoming edges needs, and at least one.

        That is each quantifier's ``least_bound(0)``: ``p`` for ``≥ p`` and
        ``= p``, ``p + 1`` for ``> p``.  A ratio's count depends on the
        degree, and at total 0 it needs at most the one child every match
        has anyway.

        Returns ``True`` when the check passes (a match is still possible).
        """
        for node in self.pattern.nodes():
            in_edges = self.pattern.in_edges(node)
            required = max([1] + [edge.quantifier.least_bound(0) for edge in in_edges])
            if len(self.candidates.get(node, ())) < required:
                return False
        return True


def apply_quantifier_bound_filter(index: CandidateIndex, edge, graph_index) -> None:
    """Apply the ``U(v, e)`` upper-bound filter of one pattern edge to *index*.

    Records ``U(v, e) = |succₑ(v) ∩ C(u')|`` for every candidate ``v`` of
    ``edge.source``, keeps the ones that may still be matched, and counts the
    rest in ``index.pruned``: a focus candidate must leave its quantifier
    satisfiable (``may_still_hold``: the bound reaches the quantifier's
    ``least_bound`` for its total ``e``-degree), any other candidate must
    have at least one child in ``C(u')``.  The same routine
    serves the full build (:func:`build_candidate_index`) and the incremental
    rebuild around positified edges (:mod:`repro.matching.incremental`): the
    bound and the total are ``len`` of the candidate's compiled outgoing row
    of *graph_index* — intersected with the target pool for the bound.
    Negated edges are skipped (they constrain via subtraction, not counting).
    """
    quantifier = edge.quantifier
    if quantifier.is_negation:
        return
    edge_key = edge.key
    child_row = graph_index.label_rows(False, edge.label).get
    targets = index.candidates.get(edge.target, set())
    focus_edge = edge.source == index.pattern.focus
    # total -> the quantifier's least bound (a ratio makes it depend on the
    # degree); computed once per distinct total.
    least: Dict[int, int] = {}
    upper_bounds = index.upper_bounds
    survivors: Set[NodeId] = set()
    pruned = 0
    for candidate in index.candidates.get(edge.source, ()):
        row = child_row(candidate)
        if row is None:
            bound = total = 0
        else:
            bound = len(row & targets)
            total = len(row)
        upper_bounds[(edge_key, candidate)] = bound
        if focus_edge:
            needed = least.get(total)
            if needed is None:
                needed = least[total] = quantifier.least_bound(total)
        else:
            needed = 1
        if bound >= needed:
            survivors.add(candidate)
        else:
            pruned += 1
    index.candidates[edge.source] = survivors
    index.pruned += pruned


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
    3. per-edge quantifier upper bounds ``U(v, e)`` over every positive edge,
       alternating with (2) until a bound pass prunes nothing.

    ``upper_bounds`` holds the last pass's bounds — ``U`` against the final
    pools for every final candidate — and ``pruned`` counts the bound
    filter's removals over all passes (the simulation's are not counted).
    Every filter is sound for
    isomorphism, so the filtered sets still contain every true match; tests
    assert this against the reference engine and against a plain-adjacency
    transcription of the same fixpoint.  All of it resolves through the
    compiled :class:`repro.index.GraphIndex` snapshot: label index,
    signature pre-filter and frozenset row stores.
    """
    from repro.index.snapshot import GraphIndex

    index = CandidateIndex(pattern=pattern, graph=graph)
    graph_index = GraphIndex.for_graph(graph)
    skeleton = pattern.stratified().graph if use_simulation else None
    if use_simulation:
        index.candidates = dual_simulation_relation(skeleton, graph)
    else:
        index.candidates = {
            u: graph_index.nodes_with_label(pattern.node_label(u))
            for u in pattern.nodes()
        }
    edges = [edge for edge in pattern.edges() if not edge.quantifier.is_negation]
    while True:
        pruned_before = index.pruned
        index.upper_bounds.clear()
        for edge in edges:
            apply_quantifier_bound_filter(index, edge, graph_index)
        if index.pruned == pruned_before:
            break
        if use_simulation:
            index.candidates = refine_candidates(skeleton, graph, index.candidates)
    index.at_fixpoint = use_simulation

    if counter is not None:
        counter.candidates_pruned += index.pruned
    return index
