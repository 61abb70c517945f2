"""The ``Enum`` baseline — and the library's executable semantics oracle.

``Enum`` is the baseline of the paper's experiments (Section 7): run a
conventional subgraph-isomorphism algorithm to enumerate *all* matches of the
stratified pattern first, and only then verify the counting quantifiers.  It
is deliberately unoptimised — no locality, no pruning by quantifier bounds, no
incremental handling of negated edges — which is exactly what makes it useful:

* as the **performance baseline** that QMatch/PQMatch are compared against in
  Figures 8(a)–(l); and
* as the **reference implementation of the QGP semantics** (Section 2.2) that
  the optimized engines are tested against.  The code below is a direct
  transcription of the definitions: it materialises the sets
  ``Me(vx, v, Q)`` from the full list of isomorphisms and applies the
  quantifier predicate to every candidate match ``h0``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.matching.generic import (
    _build_adjacency,
    _consistent,
    _search_order,
    label_candidates,
)
from repro.matching.result import MatchResult
from repro.obs.trace import span
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import MatchingError
from repro.utils.timing import Timer

__all__ = ["EnumMatcher", "evaluate_positive_by_enumeration"]

NodeId = Hashable
Assignment = Dict[NodeId, NodeId]


def _plain_isomorphisms(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    candidates: Dict[NodeId, Set[NodeId]],
    counter: WorkCounter,
) -> Iterator[Assignment]:
    """The paper's generic ``Match`` over :class:`PropertyGraph` adjacency.

    The oracle's own backtracking search, kept free of the compiled
    machinery it checks (no index snapshot, row store or rank map): each pool is
    the intersection of the matched neighbours' adjacency sets with the
    static candidate set — the static set alone for a constraint-free node —
    visited in ``str`` order under the shared ``SelectNext`` order, and every
    probe re-checks the pattern edges with :func:`_consistent`.  Probes are
    tallied into ``counter.extensions`` exactly where
    :meth:`MatchContext.isomorphisms` tallies them, so the same pattern and
    candidates give the same stream and the same count on both.
    """
    if pattern.num_nodes == 0:
        raise MatchingError("cannot match an empty pattern")
    adjacency = _build_adjacency(pattern)
    order = _search_order(pattern, candidates, set(), adjacency=adjacency)
    assignment: Assignment = {}
    used: Set[NodeId] = set()

    def ordered_candidates(pattern_node: NodeId) -> List[NodeId]:
        pool: Optional[Set[NodeId]] = None
        for neighbor, label, outgoing in adjacency[pattern_node]:
            other = assignment.get(neighbor)
            if other is None:
                continue
            if outgoing:
                reachable = graph.predecessors(other, label)
            else:
                reachable = graph.successors(other, label)
            pool = reachable if pool is None else (pool & reachable)
            if not pool:
                return []
        if pool is None:
            return sorted(candidates[pattern_node], key=str)
        return sorted(pool & candidates[pattern_node], key=str)

    def extend(position: int) -> Iterator[Assignment]:
        if position == len(order):
            yield dict(assignment)
            return
        pattern_node = order[position]
        for graph_node in ordered_candidates(pattern_node):
            if graph_node in used:
                continue
            counter.extensions += 1
            if not _consistent(pattern, graph, adjacency, assignment, pattern_node, graph_node):
                continue
            assignment[pattern_node] = graph_node
            used.add(graph_node)
            yield from extend(position + 1)
            del assignment[pattern_node]
            used.discard(graph_node)

    yield from extend(0)


def evaluate_positive_by_enumeration(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    counter: Optional[WorkCounter] = None,
    focus_restriction: Optional[Set[NodeId]] = None,
) -> Tuple[Set[NodeId], Dict[NodeId, Set[NodeId]]]:
    """Evaluate a *positive* QGP by full enumeration (the paper's semantics).

    Returns ``(answer, node_matches)`` where *answer* is ``Q(xo, G)`` and
    *node_matches* maps every pattern node ``u`` to ``Q(u, G)`` — the nodes it
    is bound to in at least one quantifier-satisfying match.

    Parameters
    ----------
    focus_restriction:
        When given, only isomorphisms whose focus binding is in this set are
        considered (used by the QGAR layer and by tests).
    """
    if not pattern.is_positive:
        raise MatchingError("evaluate_positive_by_enumeration expects a positive pattern")
    counter = counter if counter is not None else WorkCounter()
    focus = pattern.focus
    candidates = label_candidates(pattern, graph)
    if focus_restriction is not None:
        # Intersect against the iterable directly — ``& set(...)`` would
        # materialise a throwaway copy of the restriction per call.  The
        # label_candidates pool is caller-owned, so the in-place shrink is
        # safe (and alias-free, see the no-copy audit test).
        candidates[focus].intersection_update(focus_restriction)

    # Step 1: enumerate every isomorphism of the stratified pattern, grouped
    # by the binding of the query focus.  The oracle runs its own plain
    # search on purpose: it is the independent reference the compiled
    # engine (index rows, str ranks) is tested against, so it must
    # share none of that machinery.  The label_candidates pools it mutates
    # above are defensively copied, never graph-owned views.
    by_focus: Dict[NodeId, list] = {}
    for assignment in _plain_isomorphisms(pattern.stratified(), graph, candidates, counter):
        by_focus.setdefault(assignment[focus], []).append(assignment)

    edges = pattern.edges()
    answer: Set[NodeId] = set()
    node_matches: Dict[NodeId, Set[NodeId]] = {u: set() for u in pattern.nodes()}

    for focus_node, assignments in by_focus.items():
        counter.verifications += 1
        # Step 2: materialise Me(vx, v, Q) for every edge e = (u, u') and every
        # node v bound to u in some isomorphism with h(xo) = vx.
        matched_children: Dict[Tuple[int, NodeId], Set[NodeId]] = {}
        for assignment in assignments:
            for index, edge in enumerate(edges):
                key = (index, assignment[edge.source])
                matched_children.setdefault(key, set()).add(assignment[edge.target])

        # Step 3: a candidate vx is an answer iff SOME isomorphism h0 with
        # h0(xo) = vx satisfies every counting quantifier at its own bindings.
        for assignment in assignments:
            satisfied = True
            for index, edge in enumerate(edges):
                counter.quantifier_checks += 1
                bound_source = assignment[edge.source]
                count = len(matched_children.get((index, bound_source), ()))
                total = len(graph.successors(bound_source, edge.label))
                if not edge.quantifier.check(count, total):
                    satisfied = False
                    break
            if satisfied:
                answer.add(focus_node)
                for pattern_node, graph_node in assignment.items():
                    node_matches[pattern_node].add(graph_node)
                # Other satisfying assignments only add to node_matches, so we
                # keep scanning; the answer itself is already decided.
    return answer, node_matches


class EnumMatcher:
    """Enumerate-then-verify evaluation of arbitrary QGPs.

    Negated edges are handled exactly as the semantics prescribes
    (Section 2.2): ``Q(xo, G) = Π(Q)(xo, G) \\ ⋃ₑ Π(Q⁺ᵉ)(xo, G)``, where each
    term is evaluated independently by full enumeration — i.e. with none of
    QMatch's caching.
    """

    name = "Enum"

    def evaluate(self, pattern: QuantifiedGraphPattern, graph: PropertyGraph) -> MatchResult:
        """Compute ``Q(xo, G)`` and return a :class:`MatchResult`."""
        pattern.validate()
        counter = WorkCounter()
        with span(
            "qmatch.enumerate", pattern=pattern.name, engine=self.name
        ), Timer() as timer:
            positive_part = pattern.pi()
            positive_answer, node_matches = evaluate_positive_by_enumeration(
                positive_part, graph, counter
            )
            answer = set(positive_answer)
            for edge, positified in pattern.positified_pi_patterns():
                excluded, _ = evaluate_positive_by_enumeration(positified, graph, counter)
                answer -= excluded
        return MatchResult(
            answer=answer,
            positive_answer=positive_answer,
            node_matches=node_matches,
            counter=counter,
            elapsed=timer.elapsed,
            engine=self.name,
        )

    def evaluate_answer(self, pattern: QuantifiedGraphPattern, graph: PropertyGraph) -> Set[NodeId]:
        """Convenience wrapper returning only the answer set."""
        return self.evaluate(pattern, graph).answer
