"""Per-edge-label CSR adjacency over interned ids (pure Python ``array``).

:class:`LabeledCSR` stores, for one direction (outgoing or incoming), a
classic compressed-sparse-row block *per edge label*: ``indptr[l][v]`` /
``indptr[l][v + 1]`` delimit the slice of ``indices[l]`` holding the
neighbours of node ``v`` via edges labeled ``l``.  Compared with the nested
``dict -> dict -> set`` adjacency of :class:`repro.graph.PropertyGraph`, a
neighbourhood probe costs two array reads instead of two hash lookups plus a
set copy, and iterating a neighbourhood walks a contiguous ``array('i')``
buffer instead of chasing set buckets.

Both directions plus the per-label and total degree arrays are built in a
single pass over the edge list by :func:`build_csr_pair`.  Everything is
``array('i')`` — no third-party dependencies — and nothing is mutated after
the build.

Every row is sorted ascending by neighbour id.  Consumers that only need the
neighbourhood *set* are unaffected (they convert to sets or count); the sort
makes the compiled layout independent of the adjacency dicts' hash-seeded
iteration order — snapshots of equal graphs are bit-identical across runs,
which derived structures (merged neighbourhood view, per-label row stores,
future serialisation) inherit.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Tuple

__all__ = ["LabeledCSR", "build_csr_pair"]


def _zeros(length: int) -> array:
    return array("i", bytes(length * array("i").itemsize))


class LabeledCSR:
    """CSR adjacency for one direction, split by edge label.

    Parameters
    ----------
    num_nodes:
        Number of interned nodes; every ``indptr`` block has this length + 1.
    indptr / indices:
        One ``array('i')`` pair per edge-label id, as built by
        :func:`build_csr_pair`.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "total_degree")

    def __init__(
        self,
        num_nodes: int,
        indptr: List[array],
        indices: List[array],
        total_degree: array,
    ) -> None:
        self.num_nodes = num_nodes
        self.indptr = indptr
        self.indices = indices
        self.total_degree = total_degree

    @property
    def num_labels(self) -> int:
        return len(self.indptr)

    def degree(self, label_id: int, node_id: int) -> int:
        """Number of neighbours of *node_id* via edges labeled *label_id*."""
        ptr = self.indptr[label_id]
        return ptr[node_id + 1] - ptr[node_id]

    def row(self, label_id: int, node_id: int) -> Tuple[array, int, int]:
        """The neighbour slice as ``(indices, start, end)`` for tight loops.

        Returning the backing array plus bounds avoids the copy a slice would
        make; hot loops iterate ``range(start, end)`` directly.
        """
        ptr = self.indptr[label_id]
        return self.indices[label_id], ptr[node_id], ptr[node_id + 1]

    def neighbors(self, label_id: int, node_id: int) -> array:
        """A copy of the neighbour ids (convenience; hot paths use :meth:`row`)."""
        indices, start, end = self.row(label_id, node_id)
        return indices[start:end]

    def __repr__(self) -> str:
        stored = sum(len(block) for block in self.indices)
        return f"LabeledCSR(nodes={self.num_nodes}, labels={self.num_labels}, entries={stored})"


def build_csr_pair(
    num_nodes: int,
    num_labels: int,
    edges: Iterable[Tuple[int, int, int]],
) -> Tuple[LabeledCSR, LabeledCSR]:
    """Build ``(outgoing, incoming)`` CSR blocks from ``(src, dst, label)`` triples.

    The classic two-pass construction: count per-(label, node) degrees, prefix
    sum them into index pointers, then fill the column arrays with a moving
    cursor.  All ids must already be interned (``0 <= id < num_nodes`` /
    ``num_labels``).
    """
    edge_list = list(edges)

    out_counts = [_zeros(num_nodes) for _ in range(num_labels)]
    in_counts = [_zeros(num_nodes) for _ in range(num_labels)]
    out_total = _zeros(num_nodes)
    in_total = _zeros(num_nodes)
    for source, target, label in edge_list:
        out_counts[label][source] += 1
        in_counts[label][target] += 1
        out_total[source] += 1
        in_total[target] += 1

    def prefix_sums(counts: List[array]) -> Tuple[List[array], List[array]]:
        indptr: List[array] = []
        indices: List[array] = []
        for label in range(num_labels):
            ptr = _zeros(num_nodes + 1)
            running = 0
            block_counts = counts[label]
            for node in range(num_nodes):
                ptr[node] = running
                running += block_counts[node]
            ptr[num_nodes] = running
            indptr.append(ptr)
            indices.append(_zeros(running))
        return indptr, indices

    out_indptr, out_indices = prefix_sums(out_counts)
    in_indptr, in_indices = prefix_sums(in_counts)

    out_cursor = [array("i", ptr[:-1]) for ptr in out_indptr]
    in_cursor = [array("i", ptr[:-1]) for ptr in in_indptr]
    for source, target, label in edge_list:
        position = out_cursor[label][source]
        out_indices[label][position] = target
        out_cursor[label][source] = position + 1
        position = in_cursor[label][target]
        in_indices[label][position] = source
        in_cursor[label][target] = position + 1

    _sort_rows(out_indptr, out_indices, num_nodes)
    _sort_rows(in_indptr, in_indices, num_nodes)

    outgoing = LabeledCSR(num_nodes, out_indptr, out_indices, out_total)
    incoming = LabeledCSR(num_nodes, in_indptr, in_indices, in_total)
    return outgoing, incoming


def _sort_rows(indptr: List[array], indices: List[array], num_nodes: int) -> None:
    """Sort every per-node row ascending (in place, during the build only)."""
    for ptr, block in zip(indptr, indices):
        for node in range(num_nodes):
            start, end = ptr[node], ptr[node + 1]
            if end - start > 1:
                block[start:end] = array("i", sorted(block[start:end]))
