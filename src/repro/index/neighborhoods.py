"""CSR-backed d-hop neighbourhood expansion (the DPar hot path, compiled).

The d-hop preserving partitioner runs one undirected BFS *per graph node*
(paper Section 5.2): every node's ``Nd(v)`` decides whether the node is a
border node, what its replication weight is, and what a fragment gains by
adopting it.  The dict-backed :func:`repro.graph.traversal.nodes_within_hops`
pays, per visited node, a union of per-label successor and predecessor sets —
several fresh set allocations per BFS step.

:class:`NeighborhoodCSR` removes all of that:

* :func:`merge_undirected` folds the per-edge-label CSR pair of a
  :class:`~repro.index.snapshot.GraphIndex` into a single **undirected,
  deduplicated** adjacency in CSR form — one ``indptr`` / ``indices`` pair
  over dense node ids, rows sorted ascending;
* :meth:`NeighborhoodCSR.nodes_within_hops_ids` is a frontier-array BFS: the
  reached array doubles as the frontier queue (``array('i')``), visited marks
  live in a ``bytearray``, and expanding a node walks one contiguous slice.

Like every structure in :mod:`repro.index`, a :class:`NeighborhoodCSR` is
immutable after the build and safe to share across threads.  Callers running
many BFS probes in a tight loop (DPar) pass a reusable ``visited`` scratch
``bytearray`` — the method resets exactly the marks it set before returning,
so the scratch stays zeroed between calls without an O(|V|) wipe.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.index.csr import LabeledCSR
from repro.utils.timing import Timer

__all__ = ["NeighborhoodCSR", "merge_undirected"]


class NeighborhoodCSR:
    """Merged undirected adjacency over dense node ids, in CSR form.

    ``indptr[v]`` / ``indptr[v + 1]`` delimit the slice of ``indices`` holding
    the distinct undirected neighbours of node ``v`` (all edge labels, both
    directions, self-loops excluded exactly as ``nodes_within_hops`` does —
    the graph model has none).  Rows are sorted ascending.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "build_seconds")

    def __init__(self, num_nodes: int, indptr: array, indices: array,
                 build_seconds: float = 0.0) -> None:
        self.num_nodes = num_nodes
        self.indptr = indptr
        self.indices = indices
        self.build_seconds = build_seconds

    def degree(self, node_id: int) -> int:
        """Number of distinct undirected neighbours of *node_id*."""
        return self.indptr[node_id + 1] - self.indptr[node_id]

    def neighbors_ids(self, node_id: int) -> array:
        """A copy of the neighbour ids (convenience; hot paths walk the slice)."""
        return self.indices[self.indptr[node_id]:self.indptr[node_id + 1]]

    def nodes_within_hops_ids(
        self, source_id: int, hops: int, visited: Optional[bytearray] = None
    ) -> array:
        """Dense ids of all nodes within *hops* undirected hops (inclusive).

        The returned ``array('i')`` starts with *source_id* and lists nodes in
        BFS discovery order; it is also the frontier queue, so no per-level
        list is ever allocated.

        Parameters
        ----------
        visited:
            Optional scratch ``bytearray`` of length ``num_nodes``, all zero.
            When given, it is used for the visited marks and **reset to zero**
            (only the touched positions) before returning — pass one scratch
            across a loop of calls to skip the per-call allocation.
        """
        marks = visited if visited is not None else bytearray(self.num_nodes)
        indptr, indices = self.indptr, self.indices
        reached = array("i", (source_id,))
        marks[source_id] = 1
        frontier_start = 0
        for _ in range(hops):
            frontier_end = len(reached)
            if frontier_start == frontier_end:
                break
            for position in range(frontier_start, frontier_end):
                node = reached[position]
                for cursor in range(indptr[node], indptr[node + 1]):
                    neighbor = indices[cursor]
                    if not marks[neighbor]:
                        marks[neighbor] = 1
                        reached.append(neighbor)
            frontier_start = frontier_end
        if visited is not None:
            for node in reached:
                marks[node] = 0
        return reached

    def __repr__(self) -> str:
        return f"NeighborhoodCSR(nodes={self.num_nodes}, entries={len(self.indices)})"


def merge_undirected(out_csr: LabeledCSR, in_csr: LabeledCSR) -> NeighborhoodCSR:
    """Fold a per-label CSR pair into one undirected, deduplicated CSR.

    A node's merged row is the sorted union of its per-label out- and in-rows;
    a pair of nodes connected by several typed edges (or by edges in both
    directions) contributes a single entry, matching the semantics of
    :meth:`repro.graph.PropertyGraph.neighbors`.
    """
    num_nodes = out_csr.num_nodes
    with Timer() as timer:
        indptr = array("i", bytes((num_nodes + 1) * array("i").itemsize))
        indices = array("i")
        blocks = [
            (csr.indptr[label], csr.indices[label])
            for csr in (out_csr, in_csr)
            for label in range(csr.num_labels)
        ]
        for node in range(num_nodes):
            row = {
                block[cursor]
                for ptr, block in blocks
                for cursor in range(ptr[node], ptr[node + 1])
            }
            indices.extend(sorted(row))
            indptr[node + 1] = len(indices)
    return NeighborhoodCSR(num_nodes, indptr, indices, build_seconds=timer.elapsed)
