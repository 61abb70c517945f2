"""The :class:`GraphIndex` facade: one immutable, compiled snapshot per graph.

``GraphIndex.build(graph)`` compiles a :class:`~repro.graph.PropertyGraph`
into the read-optimised representation the matching layer hammers on:

* interned node ids and node/edge labels (:mod:`repro.index.interning`),
* per-edge-label CSR adjacency in both directions plus degree arrays
  (:mod:`repro.index.csr`),
* per-node neighbourhood label signatures (:mod:`repro.index.signatures`),
* a per-node-label membership array (the compiled label index).

Invariants
----------
* **Immutability** — a snapshot is never mutated after :meth:`GraphIndex.build`
  returns; consumers may share it freely across threads.
* **Staleness detection** — the snapshot remembers the graph's mutation
  counter (:attr:`PropertyGraph.version`).  :meth:`is_stale` compares it to the
  live graph, and :meth:`ensure_fresh` raises :class:`StaleIndexError`
  instead of silently answering from outdated arrays.  Incremental callers
  (e.g. :mod:`repro.matching.incremental`) use this to decide cheaply between
  reusing, rebuilding, or refusing.
* **Caching** — :meth:`for_graph` memoises one snapshot per graph instance
  (on the graph itself) and transparently rebuilds when the graph has mutated,
  so repeated queries on a quiescent graph pay the build cost once.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.index.csr import LabeledCSR, build_csr_pair
from repro.index.interning import Interner
from repro.index.neighborhoods import NeighborhoodCSR, merge_undirected
from repro.index.signatures import NeighborhoodSignatures, build_signatures
from repro.obs.metrics import CORE
from repro.obs.trace import span
from repro.utils.errors import StaleIndexError
from repro.utils.timing import Timer

__all__ = ["GraphIndex", "build_call_count"]

NodeId = Hashable


def build_call_count() -> int:
    """How many times ``GraphIndex.build`` has run in this process.

    The parallel layer's contract is that fragments ship as serialised
    snapshots (:mod:`repro.index.serialize`) and are decoded — never
    recompiled — inside pool workers; the regression tests read this counter
    on both sides of the process boundary to pin that down.  The count is the
    always-on :data:`repro.obs.metrics.CORE` core counter (reset per test by
    the observability isolation fixture).
    """
    return CORE.index_builds

# (out_mask, in_mask) signature requirements of one pattern node; ``None``
# marks a pattern node that cannot match at all (required label absent).
MaskPair = Optional[Tuple[int, int]]


class GraphIndex:
    """An immutable compiled snapshot of a :class:`PropertyGraph`."""

    __slots__ = (
        "graph",
        "version",
        "nodes",
        "node_labels",
        "edge_labels",
        "node_label_ids",
        "out",
        "inc",
        "signatures",
        "build_seconds",
        "_label_members",
        "_neighborhoods",
        "_compiled_rows",
        "_str_ranks",
        "_self_loops",
        # Weakly referenceable, so tests can prove a superseded snapshot is
        # released rather than pinned by some cache.
        "__weakref__",
    )

    def __init__(
        self,
        graph: PropertyGraph,
        version: int,
        nodes: Interner,
        node_labels: Interner,
        edge_labels: Interner,
        node_label_ids: array,
        out: LabeledCSR,
        inc: LabeledCSR,
        signatures: NeighborhoodSignatures,
        label_members: List[array],
        build_seconds: float = 0.0,
    ) -> None:
        self.graph = graph
        self.version = version
        self.nodes = nodes
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        self.node_label_ids = node_label_ids
        self.out = out
        self.inc = inc
        self.signatures = signatures
        self._label_members = label_members
        self.build_seconds = build_seconds
        # Merged undirected adjacency, materialised on first use: only the
        # partitioner needs it, so queries that never touch DPar skip the cost.
        self._neighborhoods: Optional[NeighborhoodCSR] = None
        # Per (incoming, edge label) compiled row stores, materialised on
        # first use by the enumeration (see :meth:`compiled_rows`).
        self._compiled_rows: Dict[Tuple[bool, int], Dict[NodeId, frozenset]] = {}
        # node -> dense ``str``-order rank, materialised on first use by the
        # enumeration's pool ordering (see :meth:`str_ranks`).
        self._str_ranks: Optional[Dict[NodeId, int]] = None
        # edge label -> has some ``v -label-> v`` edge, memoised per label on
        # first use by the fixpoint answer's precondition check (see
        # :meth:`has_self_loop`).  Derived, so never part of the wire format.
        self._self_loops: Dict[str, bool] = {}

    # ------------------------------------------------------------------ build

    @classmethod
    def build(cls, graph: PropertyGraph) -> "GraphIndex":
        """Compile *graph* into a fresh snapshot (one pass over nodes + edges)."""
        CORE.index_builds += 1
        with span("index.build", graph=graph.name, nodes=graph.num_nodes), Timer() as timer:
            version = graph.version
            nodes = Interner()
            node_labels = Interner()
            label_ids: List[int] = []
            for node in graph.nodes():
                nodes.intern(node)
                label_ids.append(node_labels.intern(graph.node_label(node)))
            node_label_ids = array("i", label_ids)

            # Sorted interning order: the compiled label ids depend only on the
            # label *set*, never on edge insertion/iteration order, so two
            # builds of structurally equal graphs are byte-identical and the
            # incremental refresh (repro.delta) can extend the interner
            # in-place for new labels instead of rescanning the edge list.
            edge_list = list(graph.edges())
            edge_labels = Interner(sorted({label for _, _, label in edge_list}))
            node_id = nodes.id_of
            edge_label_id = edge_labels.id_of
            interned_edges: List[Tuple[int, int, int]] = [
                (node_id(source), node_id(target), edge_label_id(label))
                for source, target, label in edge_list
            ]

            out, inc = build_csr_pair(len(nodes), len(edge_labels), interned_edges)
            signatures = build_signatures(
                len(nodes), max(len(node_labels), 1), node_label_ids, interned_edges
            )

            label_members: List[array] = [array("i") for _ in range(len(node_labels))]
            for node_index, label_id in enumerate(node_label_ids):
                label_members[label_id].append(node_index)

        snapshot = cls(
            graph=graph,
            version=version,
            nodes=nodes,
            node_labels=node_labels,
            edge_labels=edge_labels,
            node_label_ids=node_label_ids,
            out=out,
            inc=inc,
            signatures=signatures,
            label_members=label_members,
            build_seconds=timer.elapsed,
        )
        return snapshot

    @classmethod
    def for_graph(cls, graph: PropertyGraph, rebuild: bool = False) -> "GraphIndex":
        """The cached snapshot of *graph*, rebuilt if stale (or *rebuild* is set)."""
        cached = graph.cached_index()
        if cached is not None and not rebuild and not cached.is_stale():
            return cached
        snapshot = cls.build(graph)
        graph.cache_index(snapshot)
        return snapshot

    def refreshed(self, delta, max_touched_fraction: Optional[float] = None) -> "GraphIndex":
        """A fresh snapshot after *delta* was applied to the source graph.

        Incremental maintenance: touched CSR rows are patched, signatures and
        derived structures recomputed only for affected nodes, unchanged
        buffers shared — falling back to a full :meth:`build` whenever the
        patch could not be wire-byte-identical to one (see
        :mod:`repro.delta.refresh` for the exact conditions).  The result is
        cached on the graph, so a subsequent :meth:`for_graph` is a hit.
        """
        from repro.delta.refresh import DEFAULT_MAX_TOUCHED_FRACTION, refreshed_index

        if max_touched_fraction is None:
            max_touched_fraction = DEFAULT_MAX_TOUCHED_FRACTION
        return refreshed_index(self, delta, max_touched_fraction=max_touched_fraction)

    # -------------------------------------------------------------- freshness

    def is_stale(self) -> bool:
        """Whether the source graph has mutated since this snapshot was built."""
        return self.graph.version != self.version

    def ensure_fresh(self) -> None:
        """Raise :class:`StaleIndexError` when the snapshot no longer matches."""
        if self.is_stale():
            raise StaleIndexError(
                f"graph {self.graph.name!r} mutated (version {self.graph.version} "
                f"!= snapshot {self.version}); rebuild with GraphIndex.for_graph"
            )

    # ------------------------------------------------------------ id mapping

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_id(self, node: NodeId) -> int:
        """Dense id of *node* (-1 when the node is not in the snapshot)."""
        return self.nodes.get(node)

    def node_of(self, node_id: int) -> NodeId:
        return self.nodes.value_of(node_id)

    def node_label_id(self, label: str) -> int:
        return self.node_labels.get(label)

    def edge_label_id(self, label: str) -> int:
        return self.edge_labels.get(label)

    def to_nodes(self, node_ids: Iterable[int]) -> Set[NodeId]:
        """Convert dense ids back to original node ids (a fresh set)."""
        return set(map(self.nodes.decode, node_ids))

    # ------------------------------------------------------------ label index

    def members_ids(self, node_label_id: int) -> array:
        """Dense ids of the nodes carrying the given node label (shared array)."""
        if 0 <= node_label_id < len(self._label_members):
            return self._label_members[node_label_id]
        return array("i")

    def nodes_with_label(self, label: str) -> Set[NodeId]:
        """Original ids of nodes carrying *label* (mirrors the graph API)."""
        return self.to_nodes(self.members_ids(self.node_labels.get(label)))

    def label_count(self, node_label_id: int) -> int:
        if 0 <= node_label_id < len(self._label_members):
            return len(self._label_members[node_label_id])
        return 0

    # -------------------------------------------------------------- adjacency

    def out_degree_ids(self, node_id: int, edge_label_id: int = -1) -> int:
        """Out-degree of a dense node id (per label, or total when -1)."""
        if edge_label_id < 0:
            return self.out.total_degree[node_id]
        return self.out.degree(edge_label_id, node_id)

    def in_degree_ids(self, node_id: int, edge_label_id: int = -1) -> int:
        if edge_label_id < 0:
            return self.inc.total_degree[node_id]
        return self.inc.degree(edge_label_id, node_id)

    def successors(self, node: NodeId, label: str) -> Set[NodeId]:
        """Original-id successors via *label* (parity API with the graph)."""
        node_index = self.nodes.get(node)
        edge_label = self.edge_labels.get(label)
        if node_index < 0 or edge_label < 0:
            return set()
        indices, start, end = self.out.row(edge_label, node_index)
        value_of = self.nodes.value_of
        return {value_of(indices[position]) for position in range(start, end)}

    def predecessors(self, node: NodeId, label: str) -> Set[NodeId]:
        node_index = self.nodes.get(node)
        edge_label = self.edge_labels.get(label)
        if node_index < 0 or edge_label < 0:
            return set()
        indices, start, end = self.inc.row(edge_label, node_index)
        value_of = self.nodes.value_of
        return {value_of(indices[position]) for position in range(start, end)}

    def compiled_rows(self, incoming: bool, edge_label_id: int) -> Dict[NodeId, frozenset]:
        """The enumeration-ready row store of one direction × label.

        Maps every original node id with a non-empty row to its neighbour
        set as a ``frozenset`` of original ids.  A dynamic candidate pool is
        then a single C-level ``&`` against a shared immutable set — no
        adjacency copy per probe (the very cost this index exists to remove),
        and CPython iterates the smaller operand automatically, so hub rows
        cost ``O(min(|row|, |candidates|))`` instead of the ``O(|row|)`` an
        adjacency-set copy pays.

        Built lazily per label on first use and memoised (the build is
        idempotent, so the snapshot stays safely shareable).  This is a
        deliberate space-for-time trade: each materialised store costs about
        one pointer per stored edge of that label/direction on top of the CSR
        arrays — a mutation-immune snapshot cannot alias the graph's live
        adjacency sets — and only the labels a query's pattern edges actually
        name are ever built (:meth:`precompile_rows` materialises all of them
        and is only called from the benchmark harness).
        """
        key = (incoming, edge_label_id)
        cached = self._compiled_rows.get(key)
        if cached is None:
            csr = self.inc if incoming else self.out
            columns = csr.indices[edge_label_id]
            decode = self.nodes.decode
            boxed = tuple(map(decode, columns))
            ptr = csr.indptr[edge_label_id]
            cached = {}
            start = ptr[0] if len(ptr) else 0
            for node_id in range(self.num_nodes):
                end = ptr[node_id + 1]
                if end > start:
                    cached[decode(node_id)] = frozenset(boxed[start:end])
                start = end
            self._compiled_rows[key] = cached
        return cached

    def label_rows(self, incoming: bool, label: str) -> Dict[NodeId, frozenset]:
        """:meth:`compiled_rows` by edge *label*; empty for a label the graph lacks."""
        label_id = self.edge_labels.get(label)
        return self.compiled_rows(incoming, label_id) if label_id >= 0 else {}

    def precompile_rows(self) -> None:
        """Materialise every per-label row store up front.

        The stores build lazily on first enumeration; benchmarks call this
        during their index-build phase so the one-off compilation cost is
        reported there instead of inside the first indexed query.
        """
        for edge_label_id in range(len(self.edge_labels)):
            self.compiled_rows(False, edge_label_id)
            self.compiled_rows(True, edge_label_id)

    def compiled_row_keys(self) -> Tuple[Tuple[bool, int], ...]:
        """The ``(incoming, edge label id)`` keys materialised so far (sorted).

        The snapshot wire format records these as its compiled-rows manifest
        so a decoded snapshot can rebuild exactly the stores the source had
        already paid for (see :mod:`repro.index.serialize`).
        """
        return tuple(sorted(self._compiled_rows))

    def has_self_loop(self, label: str) -> bool:
        """Whether some node has an outgoing *label* edge to itself.

        An adjacent pair of same-label pattern nodes can only collapse onto
        one graph node through such an edge, so DMatch's fixpoint answer
        asks this before trusting arc consistency to imply injectivity.
        One sweep of the label's compiled row store per snapshot (the
        memoised answer is immutable content, so the lazy build keeps the
        share-freely contract).
        """
        found = self._self_loops.get(label)
        if found is None:
            found = any(
                node in row for node, row in self.label_rows(False, label).items()
            )
            self._self_loops[label] = found
        return found

    def str_ranks(self) -> Dict[NodeId, int]:
        """``node -> dense rank`` in ``str``-sort order (built once, cached).

        The enumeration's deterministic tie-break is the ``str`` order of
        candidate pools; sorting with ``key=str`` would stringify every pool
        member on every probe, so the search and DMatch's focus sweep sort
        by an integer rank lookup from this map instead.  Nodes whose ``str``
        forms are *equal* share a rank, so a stable sort on the rank leaves
        them in pool order — exactly where ``sorted(pool, key=str)`` leaves
        them, which is the order the ``Enum`` oracle's plain search replays.
        The lazy build is idempotent
        (same immutable-content map either way), preserving the snapshot's
        share-freely contract.
        """
        ranks = self._str_ranks
        if ranks is None:
            value_of = self.nodes.value_of
            texts = [str(value_of(index)) for index in range(self.num_nodes)]
            ranks = {}
            rank = -1
            previous = None
            for index in sorted(range(self.num_nodes), key=texts.__getitem__):
                text = texts[index]
                if text != previous:
                    rank += 1
                    previous = text
                ranks[value_of(index)] = rank
            self._str_ranks = ranks
        return ranks

    # ---------------------------------------------------- d-hop neighbourhoods

    def neighborhoods(self) -> NeighborhoodCSR:
        """The merged undirected adjacency view (built once, then cached).

        The lazy build is idempotent — two racing threads at worst both build
        the same immutable structure and one is dropped — so the snapshot's
        share-freely contract is preserved.
        """
        merged = self._neighborhoods
        if merged is None:
            merged = merge_undirected(self.out, self.inc)
            self._neighborhoods = merged
        return merged

    def nodes_within_hops(self, node: NodeId, hops: int) -> Set[NodeId]:
        """Original ids within *hops* undirected hops of *node* (inclusive).

        Parity API with :func:`repro.graph.traversal.nodes_within_hops`,
        including the :class:`NodeNotFoundError` on unknown nodes.  Tight
        loops use :meth:`NeighborhoodCSR.nodes_within_hops_ids` directly with
        a reusable scratch buffer.
        """
        node_index = self.nodes.get(node)
        if node_index < 0:
            from repro.utils.errors import NodeNotFoundError

            raise NodeNotFoundError(node)
        return self.to_nodes(self.neighborhoods().nodes_within_hops_ids(node_index, hops))

    # ---------------------------------------------------- pattern requirements

    def pattern_masks(
        self, pattern_graph: PropertyGraph, dual: bool = True
    ) -> Dict[NodeId, MaskPair]:
        """Signature requirement masks for every node of a pattern graph.

        For pattern node ``u`` the out mask unions the (edge label, child
        label) bits of its outgoing pattern edges; the in mask (only when
        *dual*) unions the (edge label, parent label) bits of its incoming
        edges.  ``None`` marks a node some of whose required labels do not
        occur in the graph at all — it has no candidates.
        """
        masks: Dict[NodeId, MaskPair] = {}
        signature_bit = self.signatures.bit
        for u in pattern_graph.nodes():
            out_mask = 0
            in_mask = 0
            impossible = False
            for label in pattern_graph.out_edge_labels(u):
                edge_label = self.edge_labels.get(label)
                for child in pattern_graph.successors(u, label):
                    child_label = self.node_labels.get(pattern_graph.node_label(child))
                    if edge_label < 0 or child_label < 0:
                        impossible = True
                        break
                    out_mask |= signature_bit(edge_label, child_label)
                if impossible:
                    break
            if dual and not impossible:
                for parent in pattern_graph.predecessors(u):
                    parent_label = self.node_labels.get(pattern_graph.node_label(parent))
                    for label in pattern_graph.edge_labels(parent, u):
                        edge_label = self.edge_labels.get(label)
                        if edge_label < 0 or parent_label < 0:
                            impossible = True
                            break
                        in_mask |= signature_bit(edge_label, parent_label)
                    if impossible:
                        break
            masks[u] = None if impossible else (out_mask, in_mask)
        return masks

    def label_candidates_ids(
        self, pattern_graph: PropertyGraph, dual: bool = True
    ) -> Dict[NodeId, Set[int]]:
        """Signature-filtered label candidates, as dense-id sets per pattern node.

        This is the compiled ``FilterCandidate`` seed: label-index membership
        intersected with the O(1) signature pre-filter.  The result is always
        a superset of the (dual) simulation relation and of every isomorphic
        image, so downstream fixpoints started from it converge to exactly the
        same relations as from raw label candidates.
        """
        masks = self.pattern_masks(pattern_graph, dual=dual)
        candidates: Dict[NodeId, Set[int]] = {}
        for u in pattern_graph.nodes():
            mask_pair = masks[u]
            if mask_pair is None:
                candidates[u] = set()
                continue
            members = self.members_ids(self.node_labels.get(pattern_graph.node_label(u)))
            out_mask, in_mask = mask_pair
            candidates[u] = set(self.signatures.filter_ids(members, out_mask, in_mask))
        return candidates

    # ------------------------------------------------------------------ misc

    def __repr__(self) -> str:
        return (
            f"GraphIndex(graph={self.graph.name!r}, nodes={self.num_nodes}, "
            f"edge_labels={len(self.edge_labels)}, version={self.version}, "
            f"stale={self.is_stale()})"
        )
