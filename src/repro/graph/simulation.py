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
the O(1) neighbourhood-signature pre-filter, and a support check is one
C-level ``isdisjoint`` of a compiled frozenset row against the neighbour's
pool.  The maximal (dual) simulation relation contained in a
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
    candidates: Dict[NodeId, Set[NodeId]],
    dual: bool,
) -> Dict[NodeId, Set[NodeId]]:
    """Iteratively remove unsupported candidates until a fixpoint is reached.

    *candidates* maps pattern nodes to sets of original node ids and is
    refined in place.  A support check is one C-level ``isdisjoint`` of the
    candidate's compiled neighbour row
    (:meth:`~repro.index.GraphIndex.compiled_rows`) against the neighbour's
    pool.  Removing candidates of ``u`` can invalidate candidates of its
    pattern neighbours, so those are re-scheduled.
    """
    pattern_nodes = list(pattern_graph.nodes())
    worklist = deque(pattern_nodes)
    in_worklist = set(pattern_nodes)

    rows = graph_index.label_rows
    # Per pattern node: (row store, pattern neighbour) for every edge whose
    # other end must be supported — children via outgoing rows and, when
    # *dual*, parents via incoming rows.
    requirements = {
        u: [
            (rows(False, label), u_child)
            for label in pattern_graph.out_edge_labels(u)
            for u_child in pattern_graph.successors(u, label)
        ]
        + (
            [
                (rows(True, label), u_parent)
                for u_parent in pattern_graph.predecessors(u)
                for label in pattern_graph.edge_labels(u_parent, u)
            ]
            if dual
            else []
        )
        for u in pattern_nodes
    }

    while worklist:
        u = worklist.popleft()
        in_worklist.discard(u)
        pool = survivors = candidates[u]
        for row_store, neighbor in requirements[u]:
            if not survivors:
                break
            support = candidates[neighbor]
            get = row_store.get
            survivors = {
                v
                for v in survivors
                if (row := get(v)) is not None and not row.isdisjoint(support)
            }
        if len(survivors) != len(pool):
            candidates[u] = survivors
            for neighbor in pattern_graph.predecessors(u) | pattern_graph.successors(u):
                if neighbor not in in_worklist:
                    worklist.append(neighbor)
                    in_worklist.add(neighbor)
    return candidates


def _relation(
    pattern_graph: PropertyGraph, graph: PropertyGraph, dual: bool
) -> Dict[NodeId, Set[NodeId]]:
    from repro.index.snapshot import GraphIndex

    graph_index = GraphIndex.for_graph(graph)
    seeds = graph_index.label_candidates_ids(pattern_graph, dual=dual)
    candidates = {u: graph_index.to_nodes(ids) for u, ids in seeds.items()}
    return _refine(pattern_graph, graph_index, candidates, dual=dual)


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
    isomorphic image (the filter is sound).  The input pools are not
    modified.
    """
    from repro.index.snapshot import GraphIndex
    from repro.utils.errors import NodeNotFoundError

    # Unlike the label-derived seeds of ``_relation``, the pools
    # here are caller-supplied and may contain nodes whose labels differ
    # from the pattern's, so the signature pre-filter (which also checks
    # neighbour *labels*) would prune candidates the fixpoint keeps.  Only
    # the row-store worklist runs here, on copies of the supplied pools;
    # support is membership in those pools, not label agreement.
    graph_index = GraphIndex.for_graph(graph)
    pattern_nodes = set(pattern_graph.nodes())
    working: Dict[NodeId, Set[NodeId]] = {}
    passthrough: Dict[NodeId, Set[NodeId]] = {}
    for pattern_node, members in candidates.items():
        if pattern_node not in pattern_nodes:
            # Keys outside the pattern graph carry no requirements; the
            # worklist never visits them, so they come back verbatim
            # (including members unknown to the graph).
            passthrough[pattern_node] = set(members)
            continue
        pool = set(members)
        constrained = bool(pattern_graph.successors(pattern_node)) or (
            dual and bool(pattern_graph.predecessors(pattern_node))
        )
        if constrained:
            ghosts = graph_index.nodes.missing(pool)
            if ghosts:
                # Every candidate of a constrained pattern node is probed,
                # so a member missing from the graph is an error.
                raise NodeNotFoundError(min(ghosts, key=str))
        # Requirement-free pools are never probed: unknown members survive
        # verbatim (and, being in no compiled row, they can never support a
        # neighbour either way).
        working[pattern_node] = pool
    for pattern_node in pattern_graph.nodes():
        working.setdefault(pattern_node, set())
    result = _refine(pattern_graph, graph_index, working, dual=dual)
    result.update(passthrough)
    return result
