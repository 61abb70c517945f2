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

from typing import Dict, Hashable, Iterator, List, Optional, Set

from repro.graph.digraph import PropertyGraph
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import MatchingError, NodeNotFoundError

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
    candidate pools — and :meth:`searcher` binds one :class:`AnchoredSearch`
    over it per query, whose :meth:`~AnchoredSearch.run` is the per-anchor
    entry.  :meth:`isomorphisms` is a one-shot use of that same search.

    Candidate sets are captured at construction time; callers must not
    mutate them afterwards.

    Dynamic candidate pools are derived by intersecting the compiled
    per-label row stores of the :class:`repro.index.GraphIndex` snapshot
    (:meth:`~repro.index.GraphIndex.compiled_rows`, immutable frozenset views
    derived from the CSR rows) and ordered by the snapshot's ``str`` ranks
    (:meth:`~repro.index.GraphIndex.str_ranks`) — the same assignments in
    the same order, with the same work counts, as the plain adjacency
    search of the ``Enum`` oracle (:mod:`repro.matching.enumerate`).

    Parameters
    ----------
    anchored_nodes:
        The pattern nodes that :meth:`isomorphisms` will receive bindings for
        (typically just the query focus).  They are placed first in the
        matching order.
    """

    def __init__(
        self,
        pattern: QuantifiedGraphPattern,
        graph: PropertyGraph,
        candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
        anchored_nodes: Optional[Set[NodeId]] = None,
    ) -> None:
        if pattern.num_nodes == 0:
            raise MatchingError("cannot match an empty pattern")
        self.pattern = pattern
        self.graph = graph
        self.candidates = candidates if candidates is not None else label_candidates(pattern, graph)
        for pattern_node in pattern.nodes():
            self.candidates.setdefault(pattern_node, set())
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
        self._snapshot = None
        self._compiled_adjacency: Dict[NodeId, List[tuple]] = {}
        self._active_plan: Optional[tuple] = None
        self._refresh_snapshot()

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

    def searcher(
        self,
        counter: Optional[WorkCounter] = None,
        anchored: Optional[Set[NodeId]] = None,
        limit: Optional[int] = None,
    ) -> "AnchoredSearch":
        """One :class:`AnchoredSearch` over this context, anchored at *anchored*.

        *anchored* defaults to the context's ``anchored_nodes`` (and its
        matching order); another node set gets its own ``SelectNext`` order.
        Build it once and call :meth:`AnchoredSearch.run` per anchor.
        """
        if anchored is None or set(anchored) == self.anchored_nodes:
            return AnchoredSearch(self, self.order, self.anchored_nodes, counter, limit)
        anchored = set(anchored)
        order = _search_order(
            self.pattern, self.candidates, anchored, adjacency=self.adjacency
        )
        return AnchoredSearch(self, order, anchored, counter, limit)

    def isomorphisms(
        self,
        anchor: Optional[Assignment] = None,
        counter: Optional[WorkCounter] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Assignment]:
        """Enumerate isomorphisms extending *anchor* (any anchored node set).

        A one-shot :class:`AnchoredSearch`: callers that anchor many times
        build one with :meth:`searcher` instead.
        """
        anchor = anchor or {}
        search = self.searcher(counter, set(anchor), limit)
        yield from search.run(anchor)


_NO_MATCHES: tuple = ()


class AnchoredSearch:
    """One query's anchored enumeration: bound once, run per anchor.

    DMatch verifies every focus candidate of a query against the same
    pattern, candidate pools and matching order; only the anchored graph
    node changes.  Construction binds, per order position, the pool's
    active-constraint rows and its pattern label, plus the snapshot's
    ``str``-rank key and the work counter — so :meth:`run` only resets
    ``assignment``/``used`` and walks the one ``extend`` loop.
    :meth:`MatchContext.isomorphisms`, ``find_isomorphisms`` and DMatch's
    focus verification all run this same loop.

    Pools are ordered by the snapshot's ``str`` ranks: equal ``str`` forms
    share a rank, so the stable sort leaves them where ``key=str`` would,
    without stringifying every pool member per probe, and the stream
    replays the oracle's plain search.

    One stream is live at a time: :meth:`run` closes the previous anchor's
    stream (an early exit abandons it mid-search) before resetting the
    shared state.  Before each anchor the graph version is checked once; a
    stale snapshot is recompiled and the search rebound, never answered
    from.
    """

    __slots__ = (
        "context", "order", "anchored", "_counter", "_limit", "_snapshot",
        "_start", "_stream",
    )

    def __init__(
        self,
        context: MatchContext,
        order: List[NodeId],
        anchored: Set[NodeId],
        counter: Optional[WorkCounter] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.context = context
        self.order = order
        self.anchored = frozenset(anchored)
        # Unconditional tallies on the hot loop: a throwaway counter stands
        # in when the caller does not count.
        self._counter = counter if counter is not None else WorkCounter()
        self._limit = limit
        self._stream = None
        if context._snapshot.version != context.graph._version:
            context._refresh_snapshot()
        self._bind()

    def run(self, anchor: Assignment) -> Iterator[Assignment]:
        """The isomorphisms extending *anchor*, whose keys are ``anchored``.

        Closes the previous anchor's stream first, so an abandoned stream
        can never resume over (or corrupt) this one.  The anchor is checked
        here, eagerly; :meth:`MatchContext.isomorphisms` wraps this call in
        a generator, so its callers still see errors on first iteration.
        """
        previous = self._stream
        if previous is not None:
            previous.close()
            self._stream = None
        context = self.context
        if self._snapshot.version != context.graph._version:
            # The graph mutated since the search was bound: recompile rather
            # than answer from outdated rows (mirrors GraphIndex.for_graph).
            # ``_version`` is read directly — the ``version`` property would
            # cost a Python frame per anchor.
            if context._snapshot.version != context.graph._version:
                context._refresh_snapshot()
            self._bind()
        stream = self._start(anchor)
        if stream is None:
            return _NO_MATCHES
        self._stream = stream
        return stream

    def _bind(self) -> None:
        """Bind the per-position search state and build the ``extend`` loop."""
        context = self.context
        self._snapshot = context._snapshot
        pattern, graph = context.pattern, context.graph
        adjacency, candidates = context.adjacency, context.candidates
        order = self.order
        depth = len(order)
        anchored = self.anchored
        first = len(anchored)
        anchored_order = order[:first]
        counter, limit = self._counter, self._limit
        plan, plan_single = (
            context._active_plan
            if order is context.order
            else context._build_active_plan(order)
        )
        pools = tuple(candidates[node] for node in order)
        singles = tuple(plan_single.get(node) for node in order)
        actives_at = tuple(plan[node] for node in order)
        labels = tuple(context._pattern_labels[node] for node in order)
        str_rank = self._snapshot.str_ranks().__getitem__
        assignment: Assignment = {}
        used: Set[NodeId] = set()
        graph_labels = graph._labels
        # Constraint-free positions serve their invariant static pool; its
        # ordered form is cached for the life of the search.
        static_ordered: Dict[int, List[NodeId]] = {}
        yielded = 0

        def sort_pool(pool) -> List[NodeId]:
            try:
                return sorted(pool, key=str_rank)
            except KeyError:
                # A static pool may hold nodes the snapshot does not know.
                return sorted(pool, key=str)

        def pool_at(position: int):
            """The ordered pool of a position without exactly one constraint.

            No active constraint: the static candidate set.  Several:
            compiled rows intersected smallest-first (CPython iterates the
            smaller operand of ``&``).  ``None`` plan entry: an active edge
            label is absent from the graph, so the pool is empty.
            """
            actives = actives_at[position]
            if actives is None:
                return ()
            if not actives:
                cached = static_ordered.get(position)
                if cached is None:
                    cached = static_ordered[position] = sort_pool(pools[position])
                return cached
            rows = []
            for neighbor, row_sets in actives:
                row = row_sets.get(assignment[neighbor])
                if row is None:
                    return ()
                rows.append(row)
            rows.sort(key=len)
            pool = pools[position] & rows[0]
            for row in rows[1:]:
                if not pool:
                    return ()
                pool &= row
            if not pool:
                return ()
            return sort_pool(pool)

        def extend(position: int) -> Iterator[Assignment]:
            """The one enumeration loop.

            The plan-derived pools already enforce every pattern edge to an
            assigned neighbour (the edges ``_consistent`` would re-probe
            with ``has_edge``), so a probe only checks the node label.
            Ghost candidates raise ``NodeNotFoundError`` exactly as
            ``_consistent`` does.  The last position yields in place
            instead of recursing into an empty frame.
            """
            nonlocal yielded
            if position == depth:
                yielded += 1
                yield dict(assignment)
                return
            pattern_node = order[position]
            entry = singles[position]
            if entry is None:
                pool = pool_at(position)
            else:
                # The hot case: one active constraint, one row probe and one
                # C-level ``&`` against a shared immutable row.
                row = entry[1].get(assignment[entry[0]])
                if row is None:
                    return
                pool = pools[position] & row
                if not pool:
                    return
                try:
                    pool = sorted(pool, key=str_rank)
                except KeyError:
                    pool = sorted(pool, key=str)
            label = labels[position]
            last = position + 1 == depth
            for graph_node in pool:
                if graph_node in used:
                    continue
                counter.extensions += 1
                try:
                    if graph_labels[graph_node] != label:
                        continue
                except KeyError:
                    raise NodeNotFoundError(graph_node) from None
                assignment[pattern_node] = graph_node
                if last:
                    yielded += 1
                    yield dict(assignment)
                else:
                    used.add(graph_node)
                    yield from extend(position + 1)
                    used.discard(graph_node)
                del assignment[pattern_node]
                if limit is not None and yielded >= limit:
                    return

        def start(anchor: Assignment) -> Optional[Iterator[Assignment]]:
            """Validate *anchor* and seed the search; ``None``: no match."""
            nonlocal yielded
            for pattern_node, graph_node in anchor.items():
                pool = candidates.get(pattern_node)
                if pool is None:
                    raise MatchingError(
                        f"anchored node {pattern_node!r} is not a pattern node"
                    )
                if graph_node not in pool:
                    return None  # The anchor itself is not a viable candidate.
            if len(anchor) > 1 and len(set(anchor.values())) != len(anchor):
                return None  # Anchor violates injectivity.
            if anchor.keys() != anchored:
                raise MatchingError(
                    f"search anchored at {sorted(map(str, anchored))}, "
                    f"got {sorted(map(str, anchor))}"
                )
            assignment.clear()
            used.clear()
            yielded = 0
            # Validate the anchored pairs against each other before searching.
            for pattern_node in anchored_order:
                graph_node = anchor[pattern_node]
                if not _consistent(
                    pattern, graph, adjacency, assignment, pattern_node, graph_node
                ):
                    return None
                assignment[pattern_node] = graph_node
                used.add(graph_node)
            return extend(first)

        self._start = start


def find_isomorphisms(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    candidates: Optional[Dict[NodeId, Set[NodeId]]] = None,
    anchor: Optional[Assignment] = None,
    counter: Optional[WorkCounter] = None,
    limit: Optional[int] = None,
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
    """
    context = MatchContext(
        pattern,
        graph,
        candidates=candidates,
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
