"""Generic subgraph-isomorphism search (the paper's procedure ``Match``).

The paper observes (after [27]) that state-of-the-art subgraph-isomorphism
algorithms share one generic backtracking skeleton — ``Match`` in Figure 4 —
and differ only in how they implement candidate filtering, the choice of the
next pattern node, and the extension test.  Every engine in this library is
built on the same skeleton, implemented here as :func:`find_isomorphisms`:

* ``FilterCandidate``  →  :func:`label_candidates` (plus the engine-specific
  filters layered on top in :mod:`repro.matching.candidates`),
* ``SelectNext``       →  a connected, most-constrained-first ordering,
* ``IsExtend``         →  :func:`_consistent`, which checks every pattern edge
  between the new pair and already-matched nodes,
* ``Verify``           →  implicit: a complete assignment that passed every
  extension check is an isomorphism.

The search yields isomorphisms as dictionaries ``pattern node -> graph node``.
It can be *anchored*: fixing the query focus (or any partial assignment)
restricts the search to embeddings extending that assignment, which is how
both the quantifier verification of DMatch and the incremental step reuse the
same code path.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, Iterator, List, Optional, Set

from repro.graph.digraph import PropertyGraph
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import MatchingError

__all__ = [
    "label_candidates",
    "MatchContext",
    "find_isomorphisms",
    "exists_isomorphism",
    "count_isomorphisms",
]

NodeId = Hashable
Assignment = Dict[NodeId, NodeId]


def label_candidates(
    pattern: QuantifiedGraphPattern, graph: PropertyGraph
) -> Dict[NodeId, Set[NodeId]]:
    """The baseline candidate sets ``C(u)``: graph nodes with ``u``'s label.

    Every value is a fresh, caller-owned mutable ``set``: callers (the Enum
    oracle, the QGAR layer, :class:`MatchContext`) intersect and shrink these
    pools in place, so the copy here guarantees that even a graph whose
    ``nodes_with_label`` hands back a shared, memoised or immutable view —
    the aliasing bug class that bit ``PropertyGraph.nodes_with_label`` in
    PR 2 — never sees a mutation leak back, and that two pattern nodes with
    the same label never alias one set.
    """
    return {
        u: set(graph.nodes_with_label(pattern.node_label(u)))
        for u in pattern.nodes()
    }


def _build_adjacency(pattern: QuantifiedGraphPattern) -> Dict[NodeId, List[tuple]]:
    """Pattern adjacency as ``node -> [(neighbor, label, is_outgoing)]``."""
    adjacency: Dict[NodeId, List[tuple]] = {u: [] for u in pattern.nodes()}
    for edge in pattern.edges():
        adjacency[edge.source].append((edge.target, edge.label, True))
        adjacency[edge.target].append((edge.source, edge.label, False))
    return adjacency


def _search_order(
    pattern: QuantifiedGraphPattern,
    candidates: Dict[NodeId, Set[NodeId]],
    anchored: Set[NodeId],
    adjacency: Optional[Dict[NodeId, List[tuple]]] = None,
) -> List[NodeId]:
    """A connected matching order: anchored nodes first, then most-constrained.

    Starting from the anchored nodes (or the focus when nothing is anchored),
    repeatedly pick the unmatched pattern node adjacent to the matched region
    with the smallest candidate set.  This is the ``SelectNext`` policy shared
    by all engines.  *candidates* only needs ``len``-able values (sets or
    sized views both work); callers that already hold the pattern adjacency
    pass it in to skip rebuilding it.
    """
    if adjacency is None:
        adjacency = _build_adjacency(pattern)
    all_nodes = list(pattern.nodes())
    order: List[NodeId] = [node for node in all_nodes if node in anchored]
    placed = set(order)
    if not order:
        start = pattern.focus if pattern.has_focus() else min(all_nodes, key=lambda u: len(candidates[u]))
        order.append(start)
        placed.add(start)
    while len(order) < len(all_nodes):
        frontier = [
            node
            for node in all_nodes
            if node not in placed
            and any(neighbor in placed for neighbor, _, _ in adjacency[node])
        ]
        if not frontier:
            # Disconnected pattern (should not happen for validated QGPs, but
            # the generic engine stays robust): fall back to any remaining node.
            frontier = [node for node in all_nodes if node not in placed]
        chosen = min(frontier, key=lambda u: (len(candidates[u]), str(u)))
        order.append(chosen)
        placed.add(chosen)
    return order


def _consistent(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    adjacency: Dict[NodeId, List[tuple]],
    assignment: Assignment,
    pattern_node: NodeId,
    graph_node: NodeId,
) -> bool:
    """``IsExtend``: can *pattern_node -> graph_node* extend *assignment*?

    Checks the node label and, for every pattern edge between *pattern_node*
    and an already-assigned pattern node, the presence of a matching graph
    edge with the same label and direction.
    """
    if graph.node_label(graph_node) != pattern.node_label(pattern_node):
        return False
    for neighbor, label, outgoing in adjacency[pattern_node]:
        other = assignment.get(neighbor)
        if other is None:
            continue
        if outgoing:
            if not graph.has_edge(graph_node, other, label):
                return False
        else:
            if not graph.has_edge(other, graph_node, label):
                return False
    return True


class MatchContext:
    """Reusable search state for anchored isomorphism enumeration.

    DMatch verifies thousands of focus candidates against the same pattern,
    graph and candidate sets; only the anchored graph node changes between
    calls.  The context therefore precomputes everything that does not depend
    on the anchor value — the pattern adjacency, the matching order and the
    candidate pools — and exposes :meth:`isomorphisms`, which performs one
    anchored enumeration without re-paying that setup cost.

    Candidate sets are captured at construction time; callers must not
    mutate them afterwards.

    Dynamic candidate pools are derived by intersecting the compiled
    per-label row stores of the :class:`repro.index.GraphIndex` snapshot
    (:meth:`~repro.index.GraphIndex.compiled_rows`, immutable frozenset views
    derived from the CSR rows) and ordered by ``str`` — the same assignments
    in the same order, with the same work counts, as the plain adjacency
    search of the ``Enum`` oracle (:mod:`repro.matching.enumerate`).

    Parameters
    ----------
    anchored_nodes:
        The pattern nodes that :meth:`isomorphisms` will receive bindings for
        (typically just the query focus).  They are placed first in the
        matching order.
    plan, plan_binding:
        An optional :class:`repro.plan.CompiledPlan` for this pattern's
        fingerprint plus the pattern-node → canonical-position binding.
        When given, snapshot resolution reuses the plan's pre-resolved row
        stores and ``str``-order ranks instead of re-deriving them — a pure
        setup/ordering-cost shortcut that enumerates byte-identically.
    """

    def __init__(
        self,
        pattern: QuantifiedGraphPattern,
        graph: PropertyGraph,
        candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
        candidate_order: Optional[Dict[NodeId, List[NodeId]]] = None,
        anchored_nodes: Optional[Set[NodeId]] = None,
        plan=None,
        plan_binding: Optional[Dict[NodeId, int]] = None,
    ) -> None:
        if pattern.num_nodes == 0:
            raise MatchingError("cannot match an empty pattern")
        self.pattern = pattern
        self.graph = graph
        self.candidates = candidates if candidates is not None else label_candidates(pattern, graph)
        for pattern_node in pattern.nodes():
            self.candidates.setdefault(pattern_node, set())
        self.candidate_order = candidate_order
        # A CompiledPlan (repro.plan) plus the pattern-node -> canonical
        # position binding: pre-resolved row stores and str-order ranks for
        # this exact fingerprint.  Purely an interpretation-cost shortcut —
        # the enumeration below stays byte-identical with or without it.
        self._plan = plan
        self._plan_binding = plan_binding if plan is not None else None
        # Rank maps let the hot loop order a (small) dynamic pool without
        # scanning the full preference list of a pattern node.
        self._ranks: Dict[NodeId, Dict[NodeId, int]] = {}
        if candidate_order:
            for pattern_node, preferred in candidate_order.items():
                self._ranks[pattern_node] = {
                    node: rank for rank, node in enumerate(preferred)
                }
        self.anchored_nodes = set(anchored_nodes or ())
        for anchored in self.anchored_nodes:
            if anchored not in self.candidates:
                raise MatchingError(f"anchored node {anchored!r} is not a pattern node")
        self.adjacency = _build_adjacency(pattern)
        self._pattern_labels = {
            pattern_node: pattern.node_label(pattern_node)
            for pattern_node in pattern.nodes()
        }
        self.order = _search_order(
            pattern, self.candidates, self.anchored_nodes, adjacency=self.adjacency
        )
        self._str_ranks: Optional[Dict[NodeId, int]] = None
        self._snapshot = None
        self._compiled_adjacency: Dict[NodeId, List[tuple]] = {}
        self._active_plan: Optional[tuple] = None
        self._refresh_snapshot()

    def with_candidates(self, candidates: Dict[NodeId, Set[NodeId]]) -> "MatchContext":
        """A context over other candidate pools, sharing everything else.

        The locality search verifies each focus candidate over pools
        restricted to its neighbourhood.  Rank maps, pattern adjacency and
        labels and the compiled row-store adjacency do not depend on the
        pools, so the derived context borrows them from this one (built once
        per query) and only recomputes the matching order and its
        active-constraint plan — exactly what a fresh construction over
        *candidates* would hold.  Nothing outlives the query that built
        this context.
        """
        derived = copy.copy(self)
        derived.candidates = candidates
        for pattern_node in self.pattern.nodes():
            candidates.setdefault(pattern_node, set())
        derived.order = _search_order(
            self.pattern, candidates, self.anchored_nodes, adjacency=self.adjacency
        )
        derived._active_plan = derived._build_active_plan(derived.order)
        return derived

    def _refresh_snapshot(self) -> None:
        """(Re)compile the graph snapshot and the compiled pattern adjacency.

        ``_compiled_adjacency`` mirrors ``adjacency`` with, per constraint,
        the compiled row store of the right direction × edge label resolved
        (see :meth:`GraphIndex.compiled_rows`) — so the per-probe loop does
        no label lookups or id encodes at all.  ``None`` entries mark edge
        labels absent from the graph (the pool is empty the moment such a
        constraint is active).
        """
        from repro.index.snapshot import GraphIndex

        self._snapshot = GraphIndex.for_graph(self.graph)
        snapshot = self._snapshot
        self._str_ranks = None
        if self._plan is not None and self._plan_from_resolution(snapshot):
            self._active_plan = self._build_active_plan(self.order)
            return
        encode_label = snapshot.edge_labels.encode
        self._compiled_adjacency = {}
        for pattern_node, constraints in self.adjacency.items():
            compiled = []
            for neighbor, label, outgoing in constraints:
                edge_label = encode_label(label)
                if edge_label is None:
                    compiled.append((neighbor, None))
                    continue
                # An outgoing pattern edge (pattern_node -> neighbor)
                # constrains the pool to predecessors of the bound neighbour,
                # i.e. the incoming CSR rows — and vice versa.
                compiled.append(
                    (neighbor, snapshot.compiled_rows(outgoing, edge_label))
                )
            self._compiled_adjacency[pattern_node] = compiled
        self._active_plan = self._build_active_plan(self.order)

    def _plan_from_resolution(self, snapshot) -> bool:
        """Adopt the plan's pre-resolved row stores for *snapshot*, if valid.

        Translates the pattern adjacency through the plan binding
        (pattern node -> canonical position) into the resolution's
        per-canonical-edge row-store pairs — the same ``(neighbor, rows)``
        shape the generic resolve builds, just without re-encoding labels or
        re-materialising stores.  Returns False (leaving the generic resolve
        to run) when the plan cannot serve this context: resolution pinned to
        a different snapshot, no binding shipped, or a pattern edge outside
        the canonical shape.  Either way the search behaves identically;
        only the setup cost differs.
        """
        plan = self._plan
        resolution = plan.resolution_for(self.graph)
        if resolution.snapshot is not snapshot:
            return False
        self._str_ranks = resolution.str_ranks
        binding = self._plan_binding
        if binding is None:
            return False
        compiled_adjacency = resolution.translated_adjacency(self.adjacency, binding)
        if compiled_adjacency is None:
            return False
        self._compiled_adjacency = compiled_adjacency
        return True

    def _build_active_plan(self, order: List[NodeId]) -> tuple:
        """Per pattern node, the constraints that are *active* when it extends.

        The backtracking invariant is that the node at position ``i`` is
        extended with exactly ``order[:i]`` already assigned, so which of its
        pattern edges constrain the pool is a static property of the matching
        order — resolved here once instead of per probe.  Returns ``(plan,
        single)``: *plan* maps each pattern node to a tuple of ``(neighbor,
        row_sets)`` constraints (empty = serve the static candidate set) or
        ``None`` when an active edge label does not occur in the graph at
        all (the pool is unconditionally empty); *single* holds the lone
        constraint directly for the nodes with exactly one active constraint
        — the hot case.
        """
        plan: Dict[NodeId, Optional[tuple]] = {}
        single: Dict[NodeId, tuple] = {}
        placed: Set[NodeId] = set()
        for pattern_node in order:
            actives = []
            impossible = False
            for constraint in self._compiled_adjacency[pattern_node]:
                if constraint[0] not in placed:
                    continue
                if constraint[1] is None:
                    impossible = True
                    break
                actives.append(constraint)
            plan[pattern_node] = None if impossible else tuple(actives)
            if not impossible and len(actives) == 1:
                single[pattern_node] = actives[0]
            placed.add(pattern_node)
        return plan, single

    def isomorphisms(
        self,
        anchor: Optional[Assignment] = None,
        counter: Optional[WorkCounter] = None,
        limit: Optional[int] = None,
        probe_profile: Optional[Dict[int, int]] = None,
    ) -> Iterator[Assignment]:
        """Enumerate isomorphisms extending *anchor* (keys ⊆ ``anchored_nodes``).

        *probe_profile*, when given, is filled with per-depth extension-probe
        tallies (``order position -> probes``) — the observed-cardinality side
        of ``EXPLAIN ANALYZE``.  Profiling wraps the extension test in a
        tallying closure, so the unprofiled hot loop carries no extra
        conditional and the profiled run enumerates byte-identically.
        """
        pattern, graph = self.pattern, self.graph
        adjacency, candidates = self.adjacency, self.candidates
        if self._snapshot.version != graph._version:
            # The graph mutated since the context was built; recompile rather
            # than answer from outdated arrays (mirrors GraphIndex.for_graph).
            # ``_version`` is read directly: the ``version`` property would
            # cost a Python frame on every enumeration call.
            self._refresh_snapshot()
        anchor = dict(anchor or {})
        for pattern_node, graph_node in anchor.items():
            if pattern_node not in candidates:
                raise MatchingError(f"anchored node {pattern_node!r} is not a pattern node")
            if graph_node not in candidates[pattern_node]:
                return  # The anchor itself is not a viable candidate.
        if len(set(anchor.values())) != len(anchor):
            return  # Anchor violates injectivity.

        order = self.order
        if set(anchor) != self.anchored_nodes:
            # The caller anchored a different node set than the context was
            # built for: fall back to a per-call matching order.
            order = _search_order(pattern, candidates, set(anchor), adjacency=adjacency)

        assignment: Assignment = {}
        used: Set[NodeId] = set()

        # Validate the anchored pairs against each other before searching.
        for pattern_node in order[: len(anchor)]:
            graph_node = anchor[pattern_node]
            if not _consistent(pattern, graph, adjacency, assignment, pattern_node, graph_node):
                return
            assignment[pattern_node] = graph_node
            used.add(graph_node)

        yielded = 0
        ranks = self._ranks

        # Constraint-free nodes serve their (invariant) static candidate set;
        # cache its ordered form so repeated visits at the same depth don't
        # re-sort it per partial assignment.
        static_ordered: Dict[NodeId, List[NodeId]] = {}

        str_ranks = self._str_ranks

        def order_pool(pattern_node: NodeId, pool) -> List[NodeId]:
            """Order a pool of original ids: rank first, ``str`` tie-break.

            The deterministic tie-break makes the emission order independent
            of set iteration order, so this search and the oracle's plain
            search enumerate identically — which keeps work counts
            byte-identical even under early exit and ``limit``.  A compiled
            plan supplies the snapshot's precomputed ``str``-order rank map,
            replacing the per-element stringification with an integer
            lookup; nodes with equal ``str`` forms share a rank, so the
            stable sort leaves them exactly where ``key=str`` would — same
            emission order, same work counts.  Candidates unknown to the
            snapshot (legitimately possible in static pools) fall back to
            string keys.
            """
            rank = ranks.get(pattern_node)
            if str_ranks is not None:
                try:
                    if rank:
                        unranked = len(rank)
                        rank_get = rank.get
                        return sorted(
                            pool,
                            key=lambda node: (rank_get(node, unranked), str_ranks[node]),
                        )
                    return sorted(pool, key=str_ranks.__getitem__)
                except KeyError:
                    pass
            if rank:
                unranked = len(rank)
                return sorted(
                    pool, key=lambda node: (rank.get(node, unranked), str(node))
                )
            return sorted(pool, key=str)

        def ordered_static(pattern_node: NodeId) -> List[NodeId]:
            cached = static_ordered.get(pattern_node)
            if cached is None:
                cached = order_pool(pattern_node, candidates[pattern_node])
                static_ordered[pattern_node] = cached
            return cached

        # C-level bound methods: the pool loop below runs per extension
        # probe, so even a Python-frame dict lookup per constraint counts.
        plan, plan_single = (
            self._active_plan
            if order is self.order
            else self._build_active_plan(order)
        )
        single_get = plan_single.get
        graph_label_of = graph.node_label
        pattern_labels = self._pattern_labels

        def is_extendable(pattern_node: NodeId, graph_node: NodeId) -> bool:
            """Label check only: the plan-derived pools already enforce every
            pattern edge to an assigned neighbour (the exact edges
            ``_consistent`` would re-probe with ``has_edge``), and a
            constraint-free pool has no assigned neighbours to check.  Ghost
            candidates raise ``NodeNotFoundError`` here exactly as they do in
            ``_consistent``."""
            return graph_label_of(graph_node) == pattern_labels[pattern_node]

        def ordered_candidates(pattern_node: NodeId) -> List[NodeId]:
            """Intersect compiled CSR rows, no copies.

            The active-constraint plan already names the row stores to probe,
            so the common single-constraint case is one dict lookup plus one
            C-level ``&`` of the static candidate set with a shared immutable
            row — CPython iterates the smaller operand, so hub rows cost
            ``O(min)`` instead of ``O(|row|)`` for a copy.  With several
            active constraints, rows are intersected smallest-first.  The
            result feeds the shared ordering rule, so the enumeration visits
            the same candidates in the same order as the oracle's plain
            adjacency search.
            """
            entry = single_get(pattern_node)
            if entry is not None:
                row = entry[1].get(assignment[entry[0]])
                if row is None:  # empty row: the pool is already empty
                    return []
                pool = candidates[pattern_node] & row
                if not pool:
                    return []
                return order_pool(pattern_node, pool)
            actives = plan[pattern_node]
            if actives is None:  # an active edge label is absent from the graph
                return []
            if not actives:
                # Constraint-free node: serve the static candidate set (it may
                # legitimately contain nodes unknown to the snapshot).
                return ordered_static(pattern_node)
            rows = []
            for neighbor, row_sets in actives:
                row = row_sets.get(assignment[neighbor])
                if row is None:
                    return []
                rows.append(row)
            rows.sort(key=len)
            pool = candidates[pattern_node] & rows[0]
            for row in rows[1:]:
                if not pool:
                    return []
                pool &= row
            if not pool:
                return []
            return order_pool(pattern_node, pool)

        if probe_profile is not None:
            # EXPLAIN ANALYZE: tally each probe at its order position.  The
            # extension test runs exactly once per counted probe, so the
            # tallies sum to ``counter.extensions``.
            position_of = {node: position for position, node in enumerate(order)}
            label_check = is_extendable
            profile_get = probe_profile.get

            def is_extendable(pattern_node: NodeId, graph_node: NodeId) -> bool:
                position = position_of[pattern_node]
                probe_profile[position] = profile_get(position, 0) + 1
                return label_check(pattern_node, graph_node)

        def extend(position: int) -> Iterator[Assignment]:
            nonlocal yielded
            if position == len(order):
                yielded += 1
                yield dict(assignment)
                return
            pattern_node = order[position]
            for graph_node in ordered_candidates(pattern_node):
                if graph_node in used:
                    continue
                if counter is not None:
                    counter.extensions += 1
                if not is_extendable(pattern_node, graph_node):
                    continue
                assignment[pattern_node] = graph_node
                used.add(graph_node)
                yield from extend(position + 1)
                del assignment[pattern_node]
                used.discard(graph_node)
                if limit is not None and yielded >= limit:
                    return

        yield from extend(len(anchor))


def find_isomorphisms(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
    anchor: Optional[Assignment] = None,
    counter: Optional[WorkCounter] = None,
    limit: Optional[int] = None,
    candidate_order: Optional[Dict[NodeId, List[NodeId]]] = None,
) -> Iterator[Assignment]:
    """Enumerate isomorphisms of the (stratified) *pattern* in *graph*.

    Quantifiers on the pattern are ignored here — this routine implements the
    purely topological notion of a match of ``Qπ`` (Section 2.1); counting is
    layered on top by the callers.  This is a convenience wrapper around
    :class:`MatchContext` for one-off enumerations; callers that anchor the
    same pattern at many different graph nodes should build the context once.

    Parameters
    ----------
    candidates:
        Optional pre-filtered candidate sets; defaults to label candidates.
    anchor:
        A partial assignment that every yielded isomorphism must extend
        (commonly ``{xo: vx}``); its pairs are validated first.
    counter:
        When given, extension attempts are tallied into it.
    limit:
        Stop after yielding this many isomorphisms.
    candidate_order:
        Optional per-pattern-node candidate orderings (e.g. the potential
        ordering of DMatch); nodes missing from a list are appended after it.
    """
    context = MatchContext(
        pattern,
        graph,
        candidates=candidates,
        candidate_order=candidate_order,
        anchored_nodes=set(anchor or ()),
    )
    yield from context.isomorphisms(anchor=anchor, counter=counter, limit=limit)


def exists_isomorphism(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
    anchor: Optional[Assignment] = None,
    counter: Optional[WorkCounter] = None,
) -> bool:
    """Whether at least one isomorphism (extending *anchor*) exists."""
    for _ in find_isomorphisms(pattern, graph, candidates, anchor, counter, limit=1):
        return True
    return False


def count_isomorphisms(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
    anchor: Optional[Assignment] = None,
) -> int:
    """The number of isomorphisms of the stratified pattern (test helper)."""
    return sum(1 for _ in find_isomorphisms(pattern, graph, candidates, anchor))
