"""DPar: balanced, d-hop preserving graph partition (paper Section 5.2).

A *d-hop preserving partition* distributes a graph over ``n`` fragments such
that

* it is **balanced** — every fragment's size stays under ``c · |G| / n`` for a
  small constant ``c``, and
* it is **covering** — every node ``v`` it covers has its whole d-hop
  neighbourhood ``Nd(v)`` inside a single fragment, so a QGP of radius ≤ d can
  be answered for ``v`` entirely locally (no inter-fragment communication).

The partition is **complete** when every node of the graph is covered.  DPar
builds one in the paper's three phases:

1. a *base partition* assigns every node a home fragment of roughly equal
   size (we grow BFS regions, which keeps neighbourhoods together far better
   than hashing);
2. *border nodes* — nodes whose ``Nd`` spills outside their home fragment —
   have their neighbourhoods packed onto fragments by a Multiple-Knapsack
   assignment (value 1 per covered node, weight = the marginal number of
   nodes the fragment would gain, capacity = the balance budget);
3. a *completion* pass assigns every still-uncovered node to the fragment
   that minimises the resulting size imbalance.

Every node ends up *owned* by exactly one fragment that contains its full
``Nd``; replicated (non-owned) nodes may appear in several fragments.  The
coordinator restricts each worker to focus candidates it owns, which makes the
union of the per-fragment answers exactly the global answer (Lemma 9(1)) —
a property the integration tests assert.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.graph.digraph import PropertyGraph
from repro.graph.traversal import nodes_within_hops
from repro.parallel.mkp import KnapsackItem, mkp_assign
from repro.utils.errors import PartitionError
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Timer

__all__ = [
    "Fragment",
    "HopPreservingPartition",
    "IdentityPartition",
    "DPar",
    "base_partition",
]

NodeId = Hashable


@dataclass
class Fragment:
    """One fragment of a d-hop preserving partition.

    ``owned_nodes`` are the nodes this fragment answers for (each graph node
    is owned by exactly one fragment); ``node_set`` additionally contains the
    replicated d-hop context of the owned nodes.  ``graph`` is materialised
    lazily by :meth:`HopPreservingPartition.fragment_graph`.  The lone
    fragment of an :class:`IdentityPartition` carries ``None`` for both:
    it owns and stores whatever its graph holds *now*, which no materialised
    set can say across node inserts.
    """

    fragment_id: int
    owned_nodes: Optional[Set[NodeId]] = field(default_factory=set)
    node_set: Optional[Set[NodeId]] = field(default_factory=set)
    border_nodes: Set[NodeId] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.node_set)


@dataclass
class HopPreservingPartition:
    """The result of DPar: fragments plus bookkeeping for the quality metrics."""

    d: int
    fragments: List[Fragment]
    source: PropertyGraph
    elapsed: float = 0.0
    _graph_cache: Dict[int, PropertyGraph] = field(default_factory=dict, repr=False)
    _owner_map: Optional[Dict[NodeId, int]] = field(default=None, repr=False)

    # ------------------------------------------------------------ accessors

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    def owner_of(self, node: NodeId) -> Optional[int]:
        """The fragment owning *node* (``None`` for unknown nodes).

        The coordinator resolves ownership per focus candidate, so this is a
        hot accessor: the node → fragment map is built once on first use
        (ownership is fixed after DPar returns) instead of scanning every
        fragment's owned set per call.
        """
        owner_map = self._owner_map
        if owner_map is None:
            owner_map = {
                node_id: fragment.fragment_id
                for fragment in self.fragments
                for node_id in fragment.owned_nodes
            }
            self._owner_map = owner_map
        return owner_map.get(node)

    def fragment_graph(self, fragment: Fragment) -> PropertyGraph:
        """Materialise the subgraph induced by the fragment's node set.

        The materialised graph is cached per fragment: the paper partitions
        once and reuses the fragments for every query of radius ≤ d, so the
        coordinator should not pay the induced-subgraph cost per query.
        """
        cached = self._graph_cache.get(fragment.fragment_id)
        if cached is None:
            cached = self.source.induced_subgraph(
                fragment.node_set, name=f"{self.source.name}#F{fragment.fragment_id}"
            )
            self._graph_cache[fragment.fragment_id] = cached
        return cached

    # -------------------------------------------------------------- metrics

    def is_covering(self) -> bool:
        """Every owned node's Nd must be inside its fragment.

        Deliberately runs the plain adjacency BFS, not the compiled CSR the
        partition was built over: a validity check should not share the
        machinery of the thing it validates.
        """
        for fragment in self.fragments:
            for node in fragment.owned_nodes:
                neighborhood = nodes_within_hops(self.source, node, self.d)
                if not neighborhood <= fragment.node_set:
                    return False
        return True

    def is_complete(self) -> bool:
        """Every node of the source graph is owned by some fragment."""
        owned = set()
        for fragment in self.fragments:
            owned |= fragment.owned_nodes
        return owned == set(self.source.nodes())

    def skew(self) -> float:
        """Smallest fragment size / largest fragment size (1.0 = perfectly even)."""
        sizes = [max(fragment.size, 0) for fragment in self.fragments]
        largest = max(sizes, default=0)
        if largest == 0:
            return 1.0
        return min(sizes) / largest

    def replication_factor(self) -> float:
        """Total stored nodes across fragments divided by |V| (1.0 = no replication)."""
        if self.source.num_nodes == 0:
            return 1.0
        return sum(fragment.size for fragment in self.fragments) / self.source.num_nodes

    def statistics(self) -> Dict[str, float]:
        return {
            "fragments": float(self.num_fragments),
            "skew": self.skew(),
            "replication": self.replication_factor(),
            "largest": float(max((f.size for f in self.fragments), default=0)),
            "smallest": float(min((f.size for f in self.fragments), default=0)),
            "elapsed": self.elapsed,
        }


class IdentityPartition(HopPreservingPartition):
    """The one-fragment partition whose fragment graph **is** the source graph.

    What ``PQMatch(num_workers=1)`` evaluates on.  DPar replicates d-hop
    context so that *n* workers can each verify the focus candidates they
    own; with one worker there is nothing to replicate for, so nothing is
    built: no ``induced_subgraph`` copy, no second ``GraphIndex``, no d-hop
    BFS.  Ownership is "everything" — represented as ``owned_nodes=None``
    (no focus restriction), never as a copied node set, so a node inserted
    after construction is owned the moment it exists — and every radius is
    preserved (``d`` is unbounded), so :meth:`DPar.extend` never runs.
    """

    def __init__(self, source: PropertyGraph) -> None:
        whole = Fragment(fragment_id=0, owned_nodes=None, node_set=None)
        super().__init__(d=sys.maxsize, fragments=[whole], source=source)

    def owner_of(self, node: NodeId) -> Optional[int]:
        return 0 if self.source.has_node(node) else None

    def fragment_graph(self, fragment: Fragment) -> PropertyGraph:
        return self.source

    def is_covering(self) -> bool:
        return True

    def is_complete(self) -> bool:
        return True

    def skew(self) -> float:
        return 1.0

    def replication_factor(self) -> float:
        return 1.0

    def statistics(self) -> Dict[str, float]:
        nodes = float(self.source.num_nodes)
        return {
            "fragments": 1.0,
            "skew": 1.0,
            "replication": 1.0,
            "largest": nodes,
            "smallest": nodes,
            "elapsed": 0.0,
        }


def base_partition(
    graph: PropertyGraph,
    num_fragments: int,
    seed: SeedLike = None,
    strategy: str = "random",
) -> List[Set[NodeId]]:
    """A balanced *base* partition of the node set into ``num_fragments`` blocks.

    Three strategies are provided, standing in for the off-the-shelf balanced
    partitioners the paper builds on:

    * ``"random"`` (default) — shuffle the nodes and deal them round-robin.
      Block sizes are perfectly balanced and, because node placement is
      independent of the graph structure, the *matching work* assigned to each
      fragment is balanced in expectation too — which is what the parallel
      coordinator cares about.
    * ``"bfs"`` — grow blocks along BFS order from random seeds, keeping
      neighbourhoods together.  This minimises the replication added by the
      d-hop extension at the price of possibly clustering expensive nodes
      (e.g. a dense community) into one fragment.
    * ``"degree"`` — balance *work*, not node counts: matching cost per node
      tracks its degree, so hub nodes are the expensive ones.  Nodes are
      placed in decreasing total-degree order (an LPT greedy) onto the block
      with the least accumulated degree weight; degrees come from the
      compiled :class:`repro.index.GraphIndex` degree arrays.  Equal block
      *weight* with nearly equal counts — the right base partition for
      skewed social graphs.
    """
    if num_fragments <= 0:
        raise PartitionError("num_fragments must be positive")
    if strategy not in ("random", "bfs", "degree"):
        raise PartitionError(f"unknown base partition strategy {strategy!r}")
    rng = ensure_rng(seed)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    blocks: List[Set[NodeId]] = [set() for _ in range(num_fragments)]

    if strategy == "random":
        for index, node in enumerate(nodes):
            blocks[index % num_fragments].add(node)
        return blocks

    if strategy == "degree":
        from repro.index.snapshot import GraphIndex

        graph_index = GraphIndex.for_graph(graph)
        out_total = graph_index.out.total_degree
        in_total = graph_index.inc.total_degree
        node_id = graph_index.node_id

        def weight(node: NodeId) -> int:
            dense = node_id(node)
            return 1 + out_total[dense] + in_total[dense]

        # LPT greedy: heaviest nodes first (the rng shuffle above breaks ties
        # between equal-degree nodes), each onto the lightest block so far.
        weighted = sorted(
            ((weight(node), node) for node in nodes), key=lambda pair: pair[0], reverse=True
        )
        loads = [0] * num_fragments
        for node_weight, node in weighted:
            lightest = min(range(num_fragments), key=lambda i: (loads[i], i))
            blocks[lightest].add(node)
            loads[lightest] += node_weight
        return blocks

    target = max(1, (len(nodes) + num_fragments - 1) // num_fragments)
    visited: Set[NodeId] = set()
    block_index = 0
    for start in nodes:
        if start in visited:
            continue
        # A deque popped from the left grows each region in true BFS order;
        # a list ``pop()`` here would grow depth-first, scattering a node's
        # near neighbourhood across block boundaries and inflating the
        # replication added by the d-hop extension.
        queue = deque((start,))
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            while block_index < num_fragments - 1 and len(blocks[block_index]) >= target:
                block_index += 1
            blocks[block_index].add(node)
            for neighbor in graph.neighbors(node):
                if neighbor not in visited:
                    queue.append(neighbor)
    return blocks


def _neighborhood_space(graph: PropertyGraph, d: int):
    """The dense-id node-set algebra the partition build runs in.

    Returns ``(within_hops, to_internal, to_public)``:

    * ``within_hops(node)`` — ``Nd(node)`` as a set in the internal space;
    * ``to_internal(nodes)`` — a fresh internal-space set from original ids;
    * ``to_public(internal)`` — back to original ids (for the final fragments).

    The internal space is **dense ids**: d-hop expansion is the
    frontier-array BFS of :class:`repro.index.NeighborhoodCSR` over the
    merged undirected CSR (one shared visited scratch across all calls,
    ``set(array)`` materialisation in C), and every subset/union/size the
    phases compute stays on small ints until the fragments are finalised.
    """
    from repro.index.snapshot import GraphIndex
    from repro.utils.errors import NodeNotFoundError

    snapshot = GraphIndex.for_graph(graph)
    merged = snapshot.neighborhoods()
    scratch = bytearray(snapshot.num_nodes)
    dense_of = snapshot.nodes.encode
    value_of = snapshot.nodes.decode

    def within_hops(node: NodeId) -> Set[int]:
        node_id = dense_of(node)
        if node_id is None:
            # Same error ``nodes_within_hops`` raises; the snapshot is fresh,
            # so this only fires for genuinely unknown nodes (e.g. a stale
            # partition naming removed nodes).
            raise NodeNotFoundError(node)
        return set(merged.nodes_within_hops_ids(node_id, d, visited=scratch))

    def to_internal(nodes) -> Set[int]:
        encoded = set(map(dense_of, nodes))
        if None in encoded:
            missing = next(node for node in nodes if dense_of(node) is None)
            raise NodeNotFoundError(missing)
        return encoded

    def to_public(internal) -> Set[NodeId]:
        return set(map(value_of, internal))

    return within_hops, to_internal, to_public


class DPar:
    """The d-hop preserving partitioner.

    Parameters
    ----------
    d:
        The hop radius to preserve; queries of radius ≤ d can then be answered
        locally per fragment.
    capacity_factor:
        The balance constant ``c``: fragments may grow to ``c · |V| / n``
        nodes.  The default 1.6 mirrors the paper's "small constant c < Cd".
    seed:
        Seed for the randomised base partition.
    strategy:
        Base partition strategy (``"random"``, ``"bfs"`` or ``"degree"``;
        see :func:`base_partition`).

    The per-node d-hop expansions (phase 1 and the incremental
    :meth:`extend`) run over the merged undirected CSR of the compiled
    :class:`repro.index.GraphIndex`.
    """

    def __init__(
        self,
        d: int = 2,
        capacity_factor: float = 1.6,
        seed: SeedLike = None,
        strategy: str = "random",
    ) -> None:
        if d < 0:
            raise PartitionError("d must be non-negative")
        if capacity_factor < 1.0:
            raise PartitionError("capacity_factor must be at least 1.0")
        self.d = d
        self.capacity_factor = capacity_factor
        self.seed = seed
        self.strategy = strategy

    # ----------------------------------------------------------------- main

    def partition(self, graph: PropertyGraph, num_fragments: int) -> HopPreservingPartition:
        """Build a complete d-hop preserving partition of *graph*."""
        if num_fragments <= 0:
            raise PartitionError("num_fragments must be positive")
        with Timer() as timer:
            partition = self._partition_inner(graph, num_fragments)
        partition.elapsed = timer.elapsed
        return partition

    def _partition_inner(self, graph: PropertyGraph, num_fragments: int) -> HopPreservingPartition:
        rng = ensure_rng(self.seed)
        blocks = base_partition(graph, num_fragments, seed=rng, strategy=self.strategy)
        # Phase 1 runs one d-hop BFS per graph node — the partitioner's hot
        # loop — and phases 2–4 are pure set algebra over the neighbourhoods.
        # All of it happens on dense ids (the "internal" space) and fragments
        # are decoded once at the end.
        within_hops, to_internal, to_public = _neighborhood_space(graph, self.d)
        fragments = [
            Fragment(fragment_id=i, node_set=to_internal(block))
            for i, block in enumerate(blocks)
        ]
        capacity = max(
            self.capacity_factor * graph.num_nodes / num_fragments,
            max((len(block) for block in blocks), default=1.0) + 1.0,
        )

        # Nodes whose Nd already sits inside their home block are covered for
        # free; the rest are border nodes.  ``neighborhoods`` values live in
        # the internal space (its keys stay original ids).
        neighborhoods: Dict[NodeId, Set[NodeId]] = {}
        border: List[NodeId] = []
        home: Dict[NodeId, int] = {}
        for fragment, block in zip(fragments, blocks):
            for node in block:
                home[node] = fragment.fragment_id
                neighborhood = within_hops(node)
                neighborhoods[node] = neighborhood
                if neighborhood <= fragment.node_set:
                    fragment.owned_nodes.add(node)
                else:
                    border.append(node)
                    fragment.border_nodes.add(node)

        # Phase 2: pack border-node neighbourhoods onto fragments via MKP.
        items = []
        preferred = {}
        for node in border:
            weight = len(neighborhoods[node] - fragments[home[node]].node_set)
            items.append(KnapsackItem(item_id=node, weight=float(max(weight, 0)), value=1.0))
            preferred[node] = home[node]
        capacities = [max(capacity - fragment.size, 0.0) for fragment in fragments]
        assignment, unassigned = mkp_assign(items, capacities, preferred_bins=preferred)
        for node, fragment_index in assignment.items():
            fragment = fragments[fragment_index]
            fragment.node_set |= neighborhoods[node]
            fragment.owned_nodes.add(node)

        # Phase 3: completion — place every still-uncovered node where it
        # causes the least imbalance, ignoring the soft capacity if necessary
        # so the partition is always complete.
        for node in unassigned:
            neighborhood = neighborhoods[node]
            best_fragment = min(
                fragments,
                key=lambda fragment: (len(fragment.node_set | neighborhood), fragment.fragment_id),
            )
            best_fragment.node_set |= neighborhood
            best_fragment.owned_nodes.add(node)

        # Phase 4: ownership rebalancing.  Covering and completeness are now
        # guaranteed, but correlated neighbourhoods can leave one fragment
        # owning far more nodes than the others — and owned nodes are exactly
        # the focus candidates a worker has to verify, so ownership skew is
        # work skew.  Move surplus ownership to under-full fragments (carrying
        # the owned node's neighbourhood along so covering is preserved).
        self._rebalance_ownership(fragments, neighborhoods, rng)

        # Decode the replicated node sets back to original ids; ownership and
        # border sets carried original ids all along.
        for fragment in fragments:
            fragment.node_set = to_public(fragment.node_set)

        return HopPreservingPartition(d=self.d, fragments=fragments, source=graph)

    @staticmethod
    def _rebalance_ownership(fragments, neighborhoods, rng) -> None:
        total_owned = sum(len(fragment.owned_nodes) for fragment in fragments)
        if not fragments or total_owned == 0:
            return
        target = -(-total_owned // len(fragments))  # ceiling division
        surplus: List[NodeId] = []
        for fragment in fragments:
            excess = len(fragment.owned_nodes) - target
            if excess > 0:
                movable = sorted(fragment.owned_nodes, key=str)
                rng.shuffle(movable)
                for node in movable[:excess]:
                    fragment.owned_nodes.discard(node)
                    surplus.append(node)
        for node in surplus:
            receiver = min(fragments, key=lambda f: (len(f.owned_nodes), f.fragment_id))
            receiver.owned_nodes.add(node)
            receiver.node_set |= neighborhoods[node]

    # ----------------------------------------------------------- incremental

    def extend(self, partition: HopPreservingPartition, new_d: int) -> HopPreservingPartition:
        """Incrementally extend a partition to a larger hop radius.

        The paper notes (end of Section 5.2) that when a query arrives whose
        radius exceeds the partition's ``d``, each fragment extends the
        neighbourhoods of its owned nodes by the missing hops instead of
        re-partitioning from scratch.  The ownership assignment is kept; only
        the replicated context grows.
        """
        if new_d < partition.d:
            raise PartitionError("cannot shrink a partition; build a new one instead")
        if new_d == partition.d:
            return partition
        with Timer() as timer:
            within_hops, to_internal, to_public = _neighborhood_space(
                partition.source, new_d
            )
            fragments = []
            for old in partition.fragments:
                node_set = to_internal(old.node_set)
                for node in old.owned_nodes:
                    node_set |= within_hops(node)
                fragments.append(
                    Fragment(
                        fragment_id=old.fragment_id,
                        owned_nodes=set(old.owned_nodes),
                        node_set=to_public(node_set),
                        border_nodes=set(old.border_nodes),
                    )
                )
            extended = HopPreservingPartition(d=new_d, fragments=fragments, source=partition.source)
        extended.elapsed = timer.elapsed
        return extended
