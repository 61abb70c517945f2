"""Graph-update incremental matching (the paper's IncQMatch, other axis).

:mod:`repro.matching.incremental` answers *query* changes incrementally; this
module answers *graph* changes.  The key fact is locality: a focus candidate
``v`` matches a pattern of radius ``r`` iff its ``r``-hop neighbourhood says
so, and a delta can only change the ``r``-hop neighbourhood of nodes that are
within ``r`` hops of something the delta touched.  That region is the
**affected area** ``AFF`` (the Section 4.2 notion transplanted to graph
updates):

* :func:`affected_area` computes it with the compiled d-hop machinery
  (:meth:`~repro.index.neighborhoods.NeighborhoodCSR.nodes_within_hops_ids`
  with one shared scratch buffer over the refreshed snapshot).  Deletions
  need care — a removed edge no longer exists in the post-delta graph, yet
  the nodes that *used* to reach through it are affected — so the expansion
  runs on the **union graph** (post-delta CSR plus an overlay of every
  removed edge, which the *inverse* delta records, cascades included).
  Distances in the union are ≤ distances in both the pre- and post-delta
  graphs, so the union d-hop ball of the touched nodes covers every node
  whose neighbourhood changed in either direction.
* :func:`inc_qmatch_delta` then re-verifies **only focus candidates inside
  AFF**: the answer is ``(cached \\ AFF) ∪ Q(AFF ∩ candidates)``, the cached
  matches outside the area carry over untouched, and the number of
  verifications performed is bounded by ``|AFF|`` (asserted in tests — the
  graph-update analogue of Proposition 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from repro.delta.ops import GraphDelta
from repro.graph.digraph import PropertyGraph
from repro.index.snapshot import GraphIndex
from repro.matching.qmatch import QMatch
from repro.obs.trace import span
from repro.patterns.qgp import QuantifiedGraphPattern

__all__ = ["DeltaMatchStats", "affected_area", "inc_qmatch_delta"]

NodeId = Hashable


@dataclass
class DeltaMatchStats:
    """Bookkeeping of one graph-update incremental evaluation.

    ``affected_area`` is AFF; ``verifications`` counts the focus candidates
    the re-evaluation actually verified (tests assert it stays ≤ ``|AFF|``);
    ``carried`` counts cached matches outside AFF that were reused without
    any work; ``added``/``removed`` are the answer diff against the cache —
    what a standing-query subscriber is notified with.
    """

    affected_area: Set[NodeId] = field(default_factory=set)
    verifications: int = 0
    carried: int = 0
    added: Set[NodeId] = field(default_factory=set)
    removed: Set[NodeId] = field(default_factory=set)

    @property
    def aff_size(self) -> int:
        return len(self.affected_area)


def _removed_edge_overlay(
    delta: GraphDelta, inverse: Optional[GraphDelta]
) -> Dict[NodeId, Set[NodeId]]:
    """Undirected adjacency of every edge the batch removed.

    The inverse batch re-inserts exactly the removed edges (explicit deletes
    plus node-delete cascades), so its ``edge_inserts`` are the complete
    removed-edge record; without an inverse only the explicit deletes are
    known, which is still complete when the delta deletes no nodes.
    """
    removed: Iterable = (
        inverse.edge_inserts if inverse is not None else delta.edge_deletes
    )
    overlay: Dict[NodeId, Set[NodeId]] = {}
    for source, target, _label in removed:
        overlay.setdefault(source, set()).add(target)
        overlay.setdefault(target, set()).add(source)
    return overlay


def affected_area(
    graph: PropertyGraph,
    delta: GraphDelta,
    hops: int,
    inverse: Optional[GraphDelta] = None,
    index: Optional[GraphIndex] = None,
) -> Set[NodeId]:
    """The paper's ``AFF``: nodes within *hops* of anything the batch touched.

    *graph* is the **post-delta** graph; pass the batch's *inverse* whenever
    the delta deletes nodes (the cascaded edges live only there).  The
    expansion runs over the compiled merged CSR of the (refreshed) snapshot —
    the same ``nodes_within_hops_ids`` frontier BFS DPar uses — plus an
    overlay of the removed edges, so the area is sound for insertions *and*
    deletions.  Deleted nodes seed the expansion but are not part of the
    returned area (they no longer exist to be matched).
    """
    seeds = delta.touched_nodes()
    if inverse is not None:
        for source, target, _label in inverse.edge_inserts:
            seeds.add(source)
            seeds.add(target)
    if not seeds:
        return set()
    if index is None:
        index = GraphIndex.for_graph(graph)
    index.ensure_fresh()
    overlay = _removed_edge_overlay(delta, inverse)
    merged = index.neighborhoods()
    encode = index.nodes.encode
    decode = index.nodes.decode
    dead = {node for node in seeds if encode(node) is None}

    if not overlay and not dead:
        # Pure-insert fast path: one compiled BFS per seed, shared scratch.
        scratch = bytearray(index.num_nodes)
        area: Set[NodeId] = set()
        for seed in seeds:
            area.update(
                map(decode, merged.nodes_within_hops_ids(encode(seed), hops, visited=scratch))
            )
        return area

    # Union-graph BFS: compiled rows for live nodes, overlay rows for removed
    # edges (and for deleted nodes, which exist only in the overlay).
    indptr, indices = merged.indptr, merged.indices
    frontier = set(seeds)
    reached: Set[NodeId] = set(seeds)
    for _ in range(hops):
        if not frontier:
            break
        next_frontier: Set[NodeId] = set()
        for node in frontier:
            dense = encode(node)
            if dense is not None:
                for cursor in range(indptr[dense], indptr[dense + 1]):
                    neighbor = decode(indices[cursor])
                    if neighbor not in reached:
                        reached.add(neighbor)
                        next_frontier.add(neighbor)
            for neighbor in overlay.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        frontier = next_frontier
    return {node for node in reached if graph.has_node(node)}


def inc_qmatch_delta(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    delta: GraphDelta,
    cached_answer: Iterable[NodeId],
    inverse: Optional[GraphDelta] = None,
    engine: Optional[QMatch] = None,
    index: Optional[GraphIndex] = None,
) -> Tuple[FrozenSet[NodeId], DeltaMatchStats]:
    """Maintain ``Q(xo, G)`` across an applied graph delta.

    Parameters
    ----------
    pattern:
        The standing QGP whose cached answer is being maintained.
    graph:
        The **post-delta** graph (apply the batch first).
    cached_answer:
        ``Q(xo, G_pre)`` — the answer computed before the batch.
    inverse:
        The inverse batch returned by :func:`repro.delta.ops.apply_delta`;
        required for exactness when the delta deletes nodes.
    engine:
        The sequential engine used for the re-verification (defaults to a
        fresh :class:`~repro.matching.qmatch.QMatch`); answers are
        engine-independent, so any configuration yields the same set.

    Returns ``(answer, stats)`` where *answer* is exactly ``Q(xo, G_post)``
    (asserted against cold re-evaluation in tests) and *stats* records AFF,
    the verification count (≤ ``|AFF|``) and the answer diff.
    """
    pattern.validate()
    engine = engine if engine is not None else QMatch()
    original = set(cached_answer)
    # A deleted focus match is *not* in AFF (deleted nodes cannot be part of
    # the post-delta area), so the carry-over below would keep it — drop the
    # dead matches before anything is carried.
    cached = original - set(delta.node_deletes) if delta.node_deletes else original
    stats = DeltaMatchStats()

    if not delta.is_structural():
        # Attribute-only batches cannot change any answer.
        stats.carried = len(cached)
        return frozenset(cached), stats

    with span("delta.inc_qmatch", pattern=pattern.name):
        aff = affected_area(
            graph, delta, pattern.radius(), inverse=inverse, index=index
        )
        stats.affected_area = aff
        if aff:
            outcome = engine.evaluate(pattern, graph, focus_restriction=aff)
            stats.verifications = outcome.counter.verifications
            carried = cached - aff
            answer = carried | set(outcome.answer)
        else:
            carried = cached
            answer = set(cached)
    stats.carried = len(carried)
    stats.added = answer - original
    stats.removed = original - answer
    return frozenset(answer), stats
