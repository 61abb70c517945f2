"""Compiled graph-index subsystem: interned CSR snapshots for fast matching.

The dict-of-sets adjacency of :class:`repro.graph.PropertyGraph` is ideal for
updates but pays hashing and pointer-chasing on every probe.  This package
compiles a graph into an immutable :class:`GraphIndex` snapshot — interned
ids, per-edge-label CSR adjacency with degree arrays (rows sorted), per-node
neighbourhood label signatures, a compiled label index, and a lazily merged
undirected adjacency view (:mod:`repro.index.neighborhoods`) — that the
candidate filter, the (dual) simulation fixpoint, the backtracking
enumeration and the partitioner all run on.  Only the ``Enum`` oracle
(:mod:`repro.matching.enumerate`) and the partition validity checks keep to
plain ``PropertyGraph`` adjacency, so they stay independent of what they
check.

Snapshots also have a versioned binary wire format
(:mod:`repro.index.serialize`): ``to_bytes``/``from_bytes`` round-trip the
compiled arrays as raw buffers (with ``save_snapshot``/``load_snapshot`` file
variants next to the graph JSON of :mod:`repro.graph.io`), so cold starts and
cross-process fragment shipping skip ``GraphIndex.build`` entirely.

See :mod:`repro.index.snapshot` for the invariants (immutability, staleness
counter, per-graph caching).
"""

from repro.index.csr import LabeledCSR, build_csr_pair
from repro.index.interning import Interner
from repro.index.neighborhoods import NeighborhoodCSR, merge_undirected
from repro.index.serialize import (
    from_bytes,
    load_snapshot,
    save_snapshot,
    snapshot_checksum,
    to_bytes,
)
from repro.index.signatures import NeighborhoodSignatures, build_signatures
from repro.index.snapshot import GraphIndex, build_call_count

__all__ = [
    "GraphIndex",
    "build_call_count",
    "Interner",
    "LabeledCSR",
    "build_csr_pair",
    "NeighborhoodCSR",
    "merge_undirected",
    "NeighborhoodSignatures",
    "build_signatures",
    "to_bytes",
    "from_bytes",
    "save_snapshot",
    "load_snapshot",
    "snapshot_checksum",
]
