"""Incremental :class:`~repro.index.GraphIndex` maintenance under deltas.

``GraphIndex.build`` pays |V| + |E| with large constants: interning every
node, listing every edge, two CSR passes with per-row sorts, one bigint
signature fold per edge.  A small update batch invalidates none of that work
outside the touched neighbourhood, so :func:`refreshed_index` patches a fresh
snapshot out of the stale one instead:

* interning tables are **shared** when unchanged and copy-extended when the
  batch appends values (interners are append-only, so old ids never move);
* per-label CSR blocks are shared untouched; labels with changed rows are
  rewritten in one pass that bulk-copies untouched row runs and re-sorts only
  the touched rows;
* neighbourhood signatures are recomputed **only for the endpoints of changed
  edges** (a deleted edge cannot simply clear a bit — another edge may still
  set it — so affected nodes re-fold their rows);
* the merged undirected CSR and the per-label enumeration row stores are
  patched the same way, but only if the stale snapshot had materialised them
  — the refresh never *creates* derived structures the consumer has not paid
  for.

The contract — pinned by a hypothesis property — is that the refreshed
snapshot is **wire-byte-identical** to a from-scratch ``GraphIndex.build`` of
the post-delta graph (:func:`repro.index.serialize.to_bytes` over the
structural sections).  Byte identity is demanding: the wire encodes interner
*orders*.  A fresh build interns edge labels in **sorted** order (so the
order depends only on the label set, never on edge insertion order), which
lets the refresh decide eligibility without scanning the edge list; it
**falls back to a full rebuild** whenever the incremental result could
differ:

* the batch deletes nodes (dense ids shift),
* the batch introduces new *node* labels (signature bit positions shift),
* an edge label dies, or a brand-new edge label sorts before an existing one
  (either way the sorted interning order of a fresh build diverges from the
  append-only extension a patch can do),
* the touched set exceeds ``max_touched_fraction`` of the nodes (past that
  point patching costs more than building), or
* the snapshot is more than one batch behind its graph.

The fallback is always correct — it *is* the from-scratch build — so callers
never need to care which path ran; :func:`refresh_rebuild_count` exposes it
for tests and benchmarks that do.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set, Tuple

from repro.delta.ops import GraphDelta
from repro.index.csr import LabeledCSR
from repro.index.interning import Interner
from repro.index.neighborhoods import NeighborhoodCSR
from repro.index.signatures import NeighborhoodSignatures
from repro.index.snapshot import GraphIndex
from repro.obs.metrics import CORE
from repro.obs.trace import span
from repro.utils.timing import Timer

__all__ = [
    "refreshed_index",
    "refresh_call_count",
    "refresh_rebuild_count",
    "DEFAULT_MAX_TOUCHED_FRACTION",
]

# Past this fraction of touched nodes a patch walks most rows anyway; the
# from-scratch build is cheaper and trivially byte-identical.
DEFAULT_MAX_TOUCHED_FRACTION = 0.5

def refresh_call_count() -> int:
    """How many times :func:`refreshed_index` has run in this process.

    Reads the always-on :data:`repro.obs.metrics.CORE` counters (the old
    module globals leaked across tests; CORE is reset by the per-test
    observability fixture).
    """
    return CORE.index_refreshes


def refresh_rebuild_count() -> int:
    """How many of those calls fell back to a full ``GraphIndex.build``."""
    return CORE.index_refresh_rebuilds


def _zeros(length: int) -> array:
    return array("i", bytes(length * array("i").itemsize))


# --------------------------------------------------------------- CSR patching

# label id -> node dense id -> (added neighbour ids, removed neighbour ids)
Changes = Dict[int, Dict[int, Tuple[Set[int], Set[int]]]]


def _patch_labeled_csr(
    old: LabeledCSR, v_new: int, l_new: int, changes: Changes
) -> LabeledCSR:
    """A fresh-build-identical CSR with only the changed rows rewritten.

    Labels without changes share the old arrays outright (both snapshots are
    immutable); when the node count grew, their index pointers are extended
    with the tail offset (new nodes have empty rows at the end).  Labels with
    changes are rewritten in one pass: untouched row runs are bulk slice
    copies, touched rows are set-patched and re-sorted.
    """
    v_old = old.num_nodes
    l_old = old.num_labels
    indptr: List[array] = []
    indices: List[array] = []
    for label_id in range(l_new):
        per_label = changes.get(label_id)
        old_ptr = old.indptr[label_id] if label_id < l_old else None
        old_block = old.indices[label_id] if label_id < l_old else None
        if not per_label:
            if old_ptr is not None and v_new == v_old:
                indptr.append(old_ptr)
                indices.append(old_block)
            elif old_ptr is not None:
                ptr = array("i", old_ptr)
                tail = ptr[-1]
                ptr.extend(array("i", [tail] * (v_new - v_old)))
                indptr.append(ptr)
                indices.append(old_block)
            else:  # unreachable: a new label always carries changes
                indptr.append(_zeros(v_new + 1))
                indices.append(array("i"))
            continue

        new_ptr = _zeros(v_new + 1)
        new_block = array("i")
        cursor = 0
        for node in sorted(per_label):
            if node > cursor and old_ptr is not None and cursor < v_old:
                stop = min(node, v_old)
                start_off, end_off = old_ptr[cursor], old_ptr[stop]
                shift = len(new_block) - start_off
                new_block.extend(old_block[start_off:end_off])
                for i in range(cursor, stop):
                    new_ptr[i + 1] = old_ptr[i + 1] + shift
                cursor = stop
            if node > cursor:  # untouched brand-new nodes: empty rows
                base = len(new_block)
                for i in range(cursor, node):
                    new_ptr[i + 1] = base
                cursor = node
            adds, removes = per_label[node]
            if old_ptr is not None and node < v_old:
                row = set(old_block[old_ptr[node]:old_ptr[node + 1]])
            else:
                row = set()
            row |= adds
            row -= removes
            new_block.extend(sorted(row))
            new_ptr[node + 1] = len(new_block)
            cursor = node + 1
        if old_ptr is not None and cursor < v_old:
            start_off, end_off = old_ptr[cursor], old_ptr[v_old]
            shift = len(new_block) - start_off
            new_block.extend(old_block[start_off:end_off])
            for i in range(cursor, v_old):
                new_ptr[i + 1] = old_ptr[i + 1] + shift
            cursor = v_old
        base = len(new_block)
        for i in range(cursor, v_new):
            new_ptr[i + 1] = base
        indptr.append(new_ptr)
        indices.append(new_block)

    total_degree = _patch_degrees(old.total_degree, v_new, changes)
    return LabeledCSR(v_new, indptr, indices, total_degree)


def _patch_degrees(old_total: array, v_new: int, changes: Changes) -> array:
    v_old = len(old_total)
    if not changes and v_new == v_old:
        return old_total
    new_total = array("i", old_total)
    if v_new > v_old:
        new_total.extend(_zeros(v_new - v_old))
    for per_label in changes.values():
        for node, (adds, removes) in per_label.items():
            new_total[node] += len(adds) - len(removes)
    return new_total


def _patch_merged(
    old_merged: NeighborhoodCSR,
    v_new: int,
    affected: Set[int],
    out: LabeledCSR,
    inc: LabeledCSR,
) -> NeighborhoodCSR:
    """Patch the merged undirected CSR: affected rows re-merged, rest copied."""
    v_old = old_merged.num_nodes
    old_ptr, old_block = old_merged.indptr, old_merged.indices
    new_ptr = _zeros(v_new + 1)
    new_block = array("i")
    num_labels = out.num_labels

    def merged_row(node: int) -> List[int]:
        row: Set[int] = set()
        for label_id in range(num_labels):
            block, start, end = out.row(label_id, node)
            row.update(block[start:end])
            block, start, end = inc.row(label_id, node)
            row.update(block[start:end])
        return sorted(row)

    cursor = 0
    for node in sorted(affected):
        if node > cursor and cursor < v_old:
            stop = min(node, v_old)
            start_off, end_off = old_ptr[cursor], old_ptr[stop]
            shift = len(new_block) - start_off
            new_block.extend(old_block[start_off:end_off])
            for i in range(cursor, stop):
                new_ptr[i + 1] = old_ptr[i + 1] + shift
            cursor = stop
        if node > cursor:
            base = len(new_block)
            for i in range(cursor, node):
                new_ptr[i + 1] = base
            cursor = node
        new_block.extend(merged_row(node))
        new_ptr[node + 1] = len(new_block)
        cursor = node + 1
    if cursor < v_old:
        start_off, end_off = old_ptr[cursor], old_ptr[v_old]
        shift = len(new_block) - start_off
        new_block.extend(old_block[start_off:end_off])
        for i in range(cursor, v_old):
            new_ptr[i + 1] = old_ptr[i + 1] + shift
        cursor = v_old
    base = len(new_block)
    for i in range(cursor, v_new):
        new_ptr[i + 1] = base
    return NeighborhoodCSR(v_new, new_ptr, new_block)


# ------------------------------------------------------------------- refresh


def refreshed_index(
    index: GraphIndex,
    delta: GraphDelta,
    max_touched_fraction: float = DEFAULT_MAX_TOUCHED_FRACTION,
) -> GraphIndex:
    """A fresh snapshot of ``index.graph`` after *delta* was applied to it.

    Call with the snapshot that was fresh *before* the batch and the batch
    itself, after :func:`repro.delta.ops.apply_delta` ran.  The result is
    cached on the graph (like :meth:`GraphIndex.for_graph`) and is wire-byte
    identical to ``GraphIndex.build(index.graph)``; see the module docs for
    when the incremental path applies and when it falls back to that build.
    """
    CORE.index_refreshes += 1
    graph = index.graph

    if not index.is_stale():
        # Attribute-only batches (or an already-refreshed snapshot): the
        # compiled structure still matches, per the staleness discipline.
        return index

    def rebuild() -> GraphIndex:
        CORE.index_refresh_rebuilds += 1
        snapshot = GraphIndex.build(graph)
        graph.cache_index(snapshot)
        return snapshot

    if graph.version != index.version + 1:
        return rebuild()  # drifted by more than the one batch we were given
    if delta.node_deletes:
        return rebuild()  # deletions shift every dense id after them

    touched = delta.touched_nodes()
    v_old = index.num_nodes
    if len(touched) > max(16, max_touched_fraction * max(v_old, 1)):
        return rebuild()

    # New *node* labels shift every signature bit position (the bit layout is
    # ``edge_label * num_node_labels + node_label``) — rebuild.
    old_node_labels = index.node_labels
    for _node, label, _attrs in delta.node_inserts:
        if old_node_labels.get(label) < 0:
            return rebuild()

    # Edge-label accounting: a fresh build interns the labels in sorted
    # order, so the patch can only extend the interner when every brand-new
    # label sorts *after* every existing one, and a dead label (a fresh build
    # would omit it) always forces the rebuild.
    old_edge_labels = index.edge_labels
    label_net: Dict[str, int] = {}
    for _s, _t, label in delta.edge_inserts:
        label_net[label] = label_net.get(label, 0) + 1
    for _s, _t, label in delta.edge_deletes:
        label_net[label] = label_net.get(label, 0) - 1
    new_label_names: List[str] = []
    for label, net in label_net.items():
        old_id = old_edge_labels.get(label)
        if old_id < 0:
            if net > 0:
                new_label_names.append(label)
        elif len(index.out.indices[old_id]) + net == 0:
            return rebuild()  # the label died with its last edge

    old_values = old_edge_labels.values()
    new_label_names.sort()
    if new_label_names and old_values and new_label_names[0] < old_values[-1]:
        return rebuild()  # the new label sorts into the middle — ids would move

    with span(
        "index.refresh", graph=graph.name, touched=len(touched)
    ), Timer() as timer:
        # ----------------------------------------------------- interning tables
        if delta.node_inserts:
            nodes = Interner(index.nodes.values())
            for node, _label, _attrs in delta.node_inserts:
                nodes.intern(node)
        else:
            nodes = index.nodes
        node_labels = old_node_labels  # verified: no new node labels
        if new_label_names:
            edge_labels = Interner(old_values + new_label_names)
        else:
            edge_labels = old_edge_labels
        v_new = len(nodes)

        # -------------------------------------------- node labels and members
        if delta.node_inserts:
            node_label_ids = array("i", index.node_label_ids)
            label_members: List[array] = list(index._label_members)
            copied_members: Set[int] = set()
            for node, label, _attrs in delta.node_inserts:
                label_id = node_labels.id_of(label)
                node_label_ids.append(label_id)
                if label_id not in copied_members:
                    label_members[label_id] = array("i", label_members[label_id])
                    copied_members.add(label_id)
                label_members[label_id].append(nodes.id_of(node))
        else:
            node_label_ids = index.node_label_ids
            label_members = index._label_members

        # ----------------------------------------------------------- CSR patch
        out_changes: Changes = {}
        in_changes: Changes = {}
        node_id = nodes.id_of
        edge_label_id = edge_labels.id_of
        for source, target, label in delta.edge_inserts:
            lid, sid, tid = edge_label_id(label), node_id(source), node_id(target)
            out_changes.setdefault(lid, {}).setdefault(sid, (set(), set()))[0].add(tid)
            in_changes.setdefault(lid, {}).setdefault(tid, (set(), set()))[0].add(sid)
        for source, target, label in delta.edge_deletes:
            lid, sid, tid = edge_label_id(label), node_id(source), node_id(target)
            out_changes.setdefault(lid, {}).setdefault(sid, (set(), set()))[1].add(tid)
            in_changes.setdefault(lid, {}).setdefault(tid, (set(), set()))[1].add(sid)
        l_new = len(edge_labels)
        out = _patch_labeled_csr(index.out, v_new, l_new, out_changes)
        inc = _patch_labeled_csr(index.inc, v_new, l_new, in_changes)

        # --------------------------------------------------------- signatures
        num_node_labels = max(len(node_labels), 1)
        out_sig = list(index.signatures.out_sig)
        in_sig = list(index.signatures.in_sig)
        out_sig.extend([0] * (v_new - v_old))
        in_sig.extend([0] * (v_new - v_old))

        def fold_signature(csr: LabeledCSR, node: int) -> int:
            sig = 0
            for label_id in range(l_new):
                block, start, end = csr.row(label_id, node)
                for position in range(start, end):
                    sig |= 1 << (
                        label_id * num_node_labels + node_label_ids[block[position]]
                    )
            return sig

        out_affected = {n for per in out_changes.values() for n in per}
        in_affected = {n for per in in_changes.values() for n in per}
        for node in out_affected:
            out_sig[node] = fold_signature(out, node)
        for node in in_affected:
            in_sig[node] = fold_signature(inc, node)
        signatures = NeighborhoodSignatures(num_node_labels, out_sig, in_sig)

        snapshot = GraphIndex(
            graph=graph,
            version=graph.version,
            nodes=nodes,
            node_labels=node_labels,
            edge_labels=edge_labels,
            node_label_ids=node_label_ids,
            out=out,
            inc=inc,
            signatures=signatures,
            label_members=label_members,
        )

        # ------------------------------------------- derived structures (hot)
        if index._neighborhoods is not None:
            affected = out_affected | in_affected
            affected.update(range(v_old, v_new))
            snapshot._neighborhoods = _patch_merged(
                index._neighborhoods, v_new, affected, out, inc
            )
        if index._compiled_rows:
            decode = nodes.decode
            for (incoming, label_id), old_store in index._compiled_rows.items():
                changes = in_changes if incoming else out_changes
                per_label = changes.get(label_id)
                if not per_label:
                    snapshot._compiled_rows[(incoming, label_id)] = old_store
                    continue
                store = dict(old_store)
                csr = inc if incoming else out
                for node in per_label:
                    block, start, end = csr.row(label_id, node)
                    if end > start:
                        store[decode(node)] = frozenset(
                            map(decode, block[start:end])
                        )
                    else:
                        store.pop(decode(node), None)
                snapshot._compiled_rows[(incoming, label_id)] = store

    snapshot.build_seconds = timer.elapsed
    graph.cache_index(snapshot)
    return snapshot
