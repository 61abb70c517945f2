"""Graph simulation (Henzinger–Henzinger–Kopke style) on labeled graphs.

QMatch uses graph simulation as a *pre-filter* (paper Appendix B, Lemma 13): a
graph node ``v`` can only match a pattern node ``u`` via subgraph isomorphism
if ``v`` simulates ``u``, i.e. ``v`` carries ``u``'s label and, for every child
``u'`` of ``u`` reached by an edge labeled ``l``, ``v`` has some child ``v'``
reached by an ``l``-labeled edge such that ``v'`` simulates ``u'``.  Computing
the (unique, maximal) simulation relation is polynomial, so it is a cheap way
to shrink candidate sets before the exponential search starts.

The implementation below runs a worklist fixpoint: start from label-compatible
candidate sets and repeatedly remove nodes that lose support for some pattern
edge, until nothing changes.  ``dual=True`` additionally requires support for
*incoming* pattern edges (dual simulation), which prunes more aggressively and
is what the candidate filter uses by default.

The fixpoint runs over a compiled :class:`repro.index.GraphIndex` snapshot:
candidate pools are seeded from the compiled label index intersected with
the O(1) neighbourhood-signature pre-filter, and support checks walk the
interned CSR rows.  The maximal (dual) simulation relation contained in a
given seed is *unique*, and the signature filter only removes nodes the first
refinement round would remove anyway, so the result is exactly the relation
the textbook worklist over plain adjacency computes — a property the oracle
tests assert against such a reference on every example and generated graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Set, TYPE_CHECKING

from repro.graph.digraph import PropertyGraph

if TYPE_CHECKING:  # pragma: no cover - only for type checkers
    from repro.patterns.qgp import QuantifiedGraphPattern

__all__ = ["simulation_relation", "dual_simulation_relation", "refine_candidates"]

NodeId = Hashable


def _refine(
    pattern_graph: PropertyGraph,
    graph_index,
    candidates: Dict[NodeId, Set[int]],
    dual: bool,
) -> Dict[NodeId, Set[int]]:
    """Iteratively remove unsupported candidates until a fixpoint is reached.

    *candidates* maps pattern nodes to sets of **dense node ids**; support
    checks walk contiguous ``array('i')`` neighbour rows of the compiled
    *graph_index* instead of building per-probe set copies.  Removing
    candidates of ``u`` can invalidate candidates of its pattern neighbours,
    so those are re-scheduled.
    """
    pattern_nodes = list(pattern_graph.nodes())
    worklist = deque(pattern_nodes)
    in_worklist = set(pattern_nodes)
    out_csr, in_csr = graph_index.out, graph_index.inc
    edge_label_id = graph_index.edge_label_id

    out_requirements = {
        u: [
            (edge_label_id(label), u_child)
            for label in pattern_graph.out_edge_labels(u)
            for u_child in pattern_graph.successors(u, label)
        ]
        for u in pattern_nodes
    }
    in_requirements = {
        u: (
            [
                (edge_label_id(label), u_parent)
                for u_parent in pattern_graph.predecessors(u)
                for label in pattern_graph.edge_labels(u_parent, u)
            ]
            if dual
            else []
        )
        for u in pattern_nodes
    }

    def schedule(u: NodeId) -> None:
        if u not in in_worklist:
            worklist.append(u)
            in_worklist.add(u)

    def supported(csr, label_id: int, node_id: int, pool: Set[int]) -> bool:
        if label_id < 0 or not pool:
            return False
        indices, start, end = csr.row(label_id, node_id)
        for position in range(start, end):
            if indices[position] in pool:
                return True
        return False

    while worklist:
        u = worklist.popleft()
        in_worklist.discard(u)
        u_out, u_in = out_requirements[u], in_requirements[u]
        survivors: Set[int] = set()
        for v in candidates[u]:
            ok = True
            for label_id, u_child in u_out:
                if not supported(out_csr, label_id, v, candidates[u_child]):
                    ok = False
                    break
            if ok:
                for label_id, u_parent in u_in:
                    if not supported(in_csr, label_id, v, candidates[u_parent]):
                        ok = False
                        break
            if ok:
                survivors.add(v)
        if survivors != candidates[u]:
            candidates[u] = survivors
            for neighbor in pattern_graph.predecessors(u) | pattern_graph.successors(u):
                schedule(neighbor)
    return candidates


def _relation(
    pattern_graph: PropertyGraph, graph: PropertyGraph, dual: bool
) -> Dict[NodeId, Set[NodeId]]:
    from repro.index.snapshot import GraphIndex

    graph_index = GraphIndex.for_graph(graph)
    candidates = graph_index.label_candidates_ids(pattern_graph, dual=dual)
    refined = _refine(pattern_graph, graph_index, candidates, dual=dual)
    return {u: graph_index.to_nodes(ids) for u, ids in refined.items()}


def simulation_relation(
    pattern_graph: PropertyGraph, graph: PropertyGraph
) -> Dict[NodeId, Set[NodeId]]:
    """The maximal (forward) simulation relation, per pattern node.

    Returns a mapping ``pattern node -> set of graph nodes that simulate it``.
    Any pattern node mapped to an empty set cannot be matched by isomorphism
    either, so the whole pattern has no match in *graph*.
    """
    return _relation(pattern_graph, graph, dual=False)


def dual_simulation_relation(
    pattern_graph: PropertyGraph, graph: PropertyGraph
) -> Dict[NodeId, Set[NodeId]]:
    """The maximal dual simulation relation (children and parents must be supported).

    Dual simulation is strictly stronger than forward simulation and still
    polynomial, so it is the default candidate pre-filter in QMatch.
    """
    return _relation(pattern_graph, graph, dual=True)


def refine_candidates(
    pattern_graph: PropertyGraph,
    graph: PropertyGraph,
    candidates: Dict[NodeId, Set[NodeId]],
    dual: bool = True,
) -> Dict[NodeId, Set[NodeId]]:
    """Run the (dual) simulation fixpoint starting from *candidates*.

    Used by the incremental step of QMatch: the cached candidate pools of
    ``Π(Q)`` are refined against the structure of the positified pattern
    ``Π(Q⁺ᵉ)`` without rebuilding them from the whole graph.  The result is
    always a subset of the input pools, and still a superset of every true
    isomorphic image (the filter is sound).
    """
    from repro.index.snapshot import GraphIndex
    from repro.utils.errors import NodeNotFoundError

    # Unlike the label-derived seeds of ``_relation``, the pools
    # here are caller-supplied and may contain nodes whose labels differ
    # from the pattern's, so the signature pre-filter (which also checks
    # neighbour *labels*) would prune candidates the fixpoint keeps.  Only
    # the CSR worklist runs here; support is membership in the supplied
    # pools, not label agreement.
    graph_index = GraphIndex.for_graph(graph)
    node_id = graph_index.node_id
    pattern_nodes = set(pattern_graph.nodes())
    working_ids: Dict[NodeId, Set[int]] = {}
    passthrough: Dict[NodeId, Set[NodeId]] = {}
    unknown: Dict[NodeId, Set[NodeId]] = {}
    for pattern_node, members in candidates.items():
        if pattern_node not in pattern_nodes:
            # Keys outside the pattern graph carry no requirements; the
            # worklist never visits them, so they come back verbatim
            # (including members unknown to the graph).
            passthrough[pattern_node] = set(members)
            continue
        constrained = bool(pattern_graph.successors(pattern_node)) or (
            dual and bool(pattern_graph.predecessors(pattern_node))
        )
        ids: Set[int] = set()
        ghosts: Set[NodeId] = set()
        for member in members:
            dense = node_id(member)
            if dense >= 0:
                ids.add(dense)
            elif constrained:
                # Every candidate of a constrained pattern node is probed,
                # so a member missing from the graph is an error.
                raise NodeNotFoundError(member)
            else:
                # Requirement-free pools are never probed: unknown members
                # survive verbatim (and, having no graph edges, they can
                # never support a neighbour either way).
                ghosts.add(member)
        working_ids[pattern_node] = ids
        if ghosts:
            unknown[pattern_node] = ghosts
    for pattern_node in pattern_graph.nodes():
        working_ids.setdefault(pattern_node, set())
    refined = _refine(pattern_graph, graph_index, working_ids, dual=dual)
    result = {u: graph_index.to_nodes(ids) for u, ids in refined.items()}
    for pattern_node, ghosts in unknown.items():
        result[pattern_node] |= ghosts
    result.update(passthrough)
    return result
