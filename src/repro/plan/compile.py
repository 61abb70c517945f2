"""Compiling canonicalized patterns into straight-line execution plans.

The service layer canonicalizes every pattern to a stable fingerprint
(:mod:`repro.service.patterns`), so a Zipf-hot pattern arrives thousands of
times under the same identity — yet the matching layer re-interpreted it per
query: quantifier checks dispatched through :meth:`CountingQuantifier.check`
attribute lookups, edge-label row stores re-resolved from strings, candidate
pools ordered by stringifying every member.  A :class:`CompiledPlan` pays
those costs **once per fingerprint per process**:

* quantifier checks are lowered to closed-over threshold comparisons
  (:func:`lower_quantifier` — a closure per distinct quantifier, no
  ``eval``-style codegen),
* per-label row-store references and ``str``-order ranks are pre-resolved
  against a concrete :class:`~repro.index.GraphIndex` snapshot into a
  :class:`PlanResolution` (one per graph epoch, cached inside the plan),
* the canonical matching-order preview derived from the snapshot's label
  statistics is kept for diagnostics (slow-query log, ``stats()``) and as
  groundwork for cost-based ordering (ROADMAP item 3).

Byte-identity contract
----------------------
A plan removes *uncounted* constant-factor interpretation only.  Answers and
every :class:`~repro.utils.counters.WorkCounter` field are asserted equal to
the interpreted fallback, which is why the **live matching order stays
per-query**: the greedy most-constrained
order depends on the actual candidate sets, and freezing it per fingerprint
would change ``extensions`` counts.  The stats-derived order here is surfaced
as plan info, not imposed on the search.

Plans are picklable **by reference** only: the service and the pool ship the
fingerprint (plus the node→canonical-position binding) across the process
boundary and workers compile-or-reuse from their own per-process
:class:`~repro.plan.cache.PlanCache` — closures and row stores never cross a
pickle boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.graph.digraph import PropertyGraph
from repro.index.snapshot import GraphIndex
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.patterns.quantifier import CountingQuantifier
from repro.utils.timing import Timer

__all__ = [
    "CompiledPlan",
    "PlanResolution",
    "compile_plan",
    "lower_quantifier",
    "plan_compile_count",
]

NodeId = Hashable
QuantifierCheck = Callable[[int, int], bool]

# Canonical edge of a plan: (source position, target position, label, quantifier).
PlanEdge = Tuple[int, int, str, CountingQuantifier]

# How many distinct graphs one plan keeps a resolution for (LRU; one
# resolution per graph, replaced when its version moves).  A service resolves
# the full graph plus one fragment graph per pool worker, so the bound
# comfortably covers a partitioned deployment; eviction only costs a
# re-resolution, never a recompile.
_MAX_RESOLUTIONS = 32

# Process-wide count of plan compilations (always on, like
# ``repro.index.build_call_count``): the acceptance contract is that each
# unique fingerprint compiles at most once per process, and tests read this
# on both sides of the pool boundary to pin that down.
_COMPILE_COUNT = 0


def plan_compile_count() -> int:
    """How many :func:`compile_plan` calls have run in this process."""
    return _COMPILE_COUNT


def lower_quantifier(quantifier: CountingQuantifier) -> QuantifierCheck:
    """Lower a quantifier to a closed-over ``(count, total) -> bool`` check.

    Replicates :meth:`CountingQuantifier.check` exactly for the non-negative
    inputs the engines produce (counts are ``len`` of matched-children sets,
    totals are out-degrees) — including the ratio epsilons and the
    ``total == 0 -> False`` ratio rule — while replacing the per-call
    attribute dispatch (``is_ratio``/``op``/``value`` lookups and float
    coercions) with one closure call over prebound constants.
    """
    if quantifier.is_ratio:
        value = float(quantifier.value)
        if quantifier.op == ">=":
            floor = value - 1e-9
            return lambda count, total: total > 0 and 100.0 * count / total >= floor
        if quantifier.op == ">":
            ceiling = value + 1e-9
            return lambda count, total: total > 0 and 100.0 * count / total > ceiling
        return lambda count, total: total > 0 and abs(100.0 * count / total - value) <= 1e-9
    threshold = int(quantifier.value)
    if quantifier.op == ">=":
        return lambda count, total: count >= threshold
    if quantifier.op == ">":
        return lambda count, total: count > threshold
    return lambda count, total: count == threshold


class PlanResolution:
    """One plan resolved against one graph epoch (snapshot-pinned).

    Everything here is derived from a concrete :class:`GraphIndex` snapshot:
    the per-canonical-edge compiled row stores (both orientations, ``None``
    when the edge label does not occur in the graph), the shared
    ``str``-order rank map, and the label-statistics order preview.  A
    resolution is only valid while its snapshot is the graph's current one;
    :meth:`CompiledPlan.resolution_for` re-resolves after a version bump.
    """

    __slots__ = (
        "graph",
        "snapshot",
        "edge_rows",
        "out_degree_rows",
        "str_ranks",
        "order_preview",
        "_neighbors",
    )

    def __init__(self, program: "CompiledPlan", graph: PropertyGraph) -> None:
        snapshot = GraphIndex.for_graph(graph)
        self.graph = graph
        self.snapshot = snapshot
        encode_label = snapshot.edge_labels.encode
        edge_rows: Dict[Tuple[int, int, str], tuple] = {}
        for source_pos, target_pos, label, _quantifier in program.edges:
            key = (source_pos, target_pos, label)
            if key in edge_rows:
                continue
            edge_label = encode_label(label)
            if edge_label is None:
                edge_rows[key] = (None, None)
            else:
                # Same orientation rule as MatchContext._refresh_snapshot: an
                # outgoing pattern edge constrains its source's pool to
                # predecessors of the bound target (the incoming CSR rows),
                # and vice versa.
                edge_rows[key] = (
                    snapshot.compiled_rows(True, edge_label),
                    snapshot.compiled_rows(False, edge_label),
                )
        self.edge_rows = edge_rows
        # Per-label outgoing rows double as degree tables: a row is the
        # successor frozenset of one node under one label, so ``len(row)``
        # IS ``graph.out_degree(node, label)`` and the lowered quantifier
        # totals become one dict probe instead of a graph method call.
        self.out_degree_rows: Dict[str, Dict[NodeId, frozenset]] = {}
        for _source_pos, _target_pos, label, _quantifier in program.edges:
            if label not in self.out_degree_rows:
                edge_label = encode_label(label)
                self.out_degree_rows[label] = (
                    {} if edge_label is None else snapshot.compiled_rows(False, edge_label)
                )
        self.str_ranks = snapshot.str_ranks()
        self.order_preview = self._stats_order(program, snapshot)
        self._neighbors: Optional[Dict[NodeId, tuple]] = None

    def ball(self, source: NodeId, radius: int) -> set:
        """``nodes_within_hops`` over a flat per-epoch neighbour table.

        The interpreted BFS copies three sets per visited node
        (``successors | predecessors`` behind ``graph.neighbors``); here the
        undirected adjacency is flattened once per epoch into tuples and the
        sweep is allocation-free.  Membership is identical — same
        reachability, same radius — so the locality-restricted candidate
        pools (and every count derived from them) cannot change.
        """
        neighbors = self._neighbors
        if neighbors is None:
            graph = self.graph
            neighbors = {node: tuple(graph.neighbors(node)) for node in graph.nodes()}
            self._neighbors = neighbors
        if source not in neighbors:
            # Unknown source: defer to the interpreted traversal so the
            # failure mode (NodeNotFoundError) stays exactly the same.
            from repro.graph.traversal import nodes_within_hops

            return nodes_within_hops(self.graph, source, radius)
        visited = {source}
        frontier = (source,)
        for _ in range(radius):
            next_frontier: List[NodeId] = []
            append = next_frontier.append
            add = visited.add
            for node in frontier:
                for neighbor in neighbors[node]:
                    if neighbor not in visited:
                        add(neighbor)
                        append(neighbor)
            if not next_frontier:
                break
            frontier = next_frontier
        return visited

    def translated_adjacency(
        self, adjacency: Dict, binding: Dict[NodeId, int]
    ) -> Optional[Dict[NodeId, List[tuple]]]:
        """Pattern adjacency translated onto this resolution's row stores.

        Runs once per query: the locality search derives its per-focus-
        candidate contexts from the query's shared one
        (:meth:`repro.matching.generic.MatchContext.with_candidates`), which
        carries the translation along.  Returns ``None`` when an edge falls
        outside the canonical shape (caller resolves generically).
        """
        edge_rows = self.edge_rows
        compiled_adjacency: Dict[NodeId, List[tuple]] = {}
        try:
            for pattern_node, constraints in adjacency.items():
                compiled = []
                for neighbor, label, outgoing in constraints:
                    if outgoing:
                        key = (binding[pattern_node], binding[neighbor], label)
                    else:
                        key = (binding[neighbor], binding[pattern_node], label)
                    rows = edge_rows[key]
                    compiled.append((neighbor, rows[0] if outgoing else rows[1]))
                compiled_adjacency[pattern_node] = compiled
        except KeyError:
            return None
        return compiled_adjacency

    @staticmethod
    def _stats_order(program: "CompiledPlan", snapshot: GraphIndex) -> Tuple[int, ...]:
        """Greedy connected order over canonical positions by label count.

        The same SelectNext shape as ``_search_order`` but driven by the
        snapshot's per-label population statistics instead of live candidate
        sets — i.e. what a cost-based planner would pick *before* seeing the
        query.  Diagnostic only (plan info, slow-query log): the live search
        keeps its per-query order to preserve work-counter byte-identity.
        """
        positions = range(len(program.node_labels))
        sizes = {
            position: snapshot.label_count(
                snapshot.node_label_id(program.node_labels[position])
            )
            for position in positions
        }
        adjacency: Dict[int, List[int]] = {position: [] for position in positions}
        for source_pos, target_pos, _label, _quantifier in program.edges:
            adjacency[source_pos].append(target_pos)
            adjacency[target_pos].append(source_pos)
        order = [program.focus_position]
        placed = {program.focus_position}
        while len(order) < len(sizes):
            frontier = [
                position
                for position in positions
                if position not in placed
                and any(neighbor in placed for neighbor in adjacency[position])
            ]
            if not frontier:
                frontier = [position for position in positions if position not in placed]
            chosen = min(frontier, key=lambda position: (sizes[position], position))
            order.append(chosen)
            placed.add(chosen)
        return tuple(order)


class CompiledPlan:
    """The graph-independent program compiled once per fingerprint.

    Holds the canonical shape of the pattern (node labels by canonical
    position, focus position, canonical edges) plus the lowered quantifier
    checks.  Graph-dependent state — row stores, ``str`` ranks, the stats
    order — lives in per-epoch :class:`PlanResolution` objects cached here
    (bounded LRU; entries pin their graph, mirroring the result cache).
    """

    __slots__ = (
        "fingerprint",
        "options_key",
        "node_labels",
        "focus_position",
        "edges",
        "compile_seconds",
        "_checks",
        "_edge_specs",
        "_resolutions",
        "_lock",
    )

    def __init__(
        self,
        fingerprint: str,
        options_key: object,
        node_labels: Tuple[str, ...],
        focus_position: int,
        edges: Tuple[PlanEdge, ...],
        compile_seconds: float = 0.0,
    ) -> None:
        self.fingerprint = fingerprint
        self.options_key = options_key
        self.node_labels = node_labels
        self.focus_position = focus_position
        self.edges = edges
        self.compile_seconds = compile_seconds
        self._checks: Dict[CountingQuantifier, QuantifierCheck] = {}
        for _source, _target, _label, quantifier in edges:
            if quantifier not in self._checks:
                self._checks[quantifier] = lower_quantifier(quantifier)
        # Positification rewrites negated edges to the existential quantifier,
        # so pre-lower it: the positive parts a QMatch evaluation hands back
        # to the plan never miss the memo.
        existential = CountingQuantifier.existential()
        if existential not in self._checks:
            self._checks[existential] = lower_quantifier(existential)
        # Per concrete edge-tuple lowered specs (see ``edge_specs``), keyed by
        # identity of the edge list the engine passes: dmatch builds one edge
        # tuple per evaluation, so this stays a one-entry memo in practice.
        self._edge_specs: Dict[Tuple[Tuple[NodeId, str, CountingQuantifier], ...], tuple] = {}
        self._resolutions: "OrderedDict[int, PlanResolution]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- lowering

    def check_for(self, quantifier: CountingQuantifier) -> QuantifierCheck:
        """The lowered check for *quantifier* (memoised per plan)."""
        check = self._checks.get(quantifier)
        if check is None:
            # Idempotent insert: racing threads build equivalent closures.
            check = lower_quantifier(quantifier)
            self._checks[quantifier] = check
        return check

    def edge_specs(self, edges: Sequence) -> Tuple[Tuple[NodeId, str, QuantifierCheck], ...]:
        """Lowered ``(source node, edge label, check)`` specs for live edges.

        *edges* are :class:`~repro.patterns.qgp.PatternEdge` objects of the
        (stratified, possibly positified) pattern being evaluated — node ids,
        not canonical positions, because the verification loop binds graph
        nodes through the live assignment.  The spec tuple replaces the
        per-edge attribute chain (``edge.source``/``edge.label``/
        ``edge.quantifier.check``) with prebound locals.
        """
        key = tuple((edge.source, edge.label, edge.quantifier) for edge in edges)
        specs = self._edge_specs.get(key)
        if specs is None:
            specs = tuple(
                (source, label, self.check_for(quantifier))
                for source, label, quantifier in key
            )
            self._edge_specs[key] = specs
        return specs

    # ----------------------------------------------------------- resolution

    def resolution_for(self, graph: PropertyGraph) -> PlanResolution:
        """The :class:`PlanResolution` of *graph* at its current version.

        One resolution per live graph, keyed ``id(graph)`` with the graph
        pinned by the entry (mirrors :class:`repro.service.cache.ResultCache`),
        so an id can never be recycled while its key is live.  The graph
        version only moves forward, so a version bump *replaces* the graph's
        resolution — the superseded snapshot is released at once instead of
        waiting for LRU eviction — and only the resolution is redone: the
        compiled program (closures, canonical shape) is reused as-is.
        """
        key = id(graph)
        with self._lock:
            resolution = self._resolutions.get(key)
            if (
                resolution is not None
                and resolution.graph is graph
                and resolution.snapshot.version == graph.version
            ):
                self._resolutions.move_to_end(key)
                return resolution
        resolution = PlanResolution(self, graph)
        with self._lock:
            self._resolutions[key] = resolution
            self._resolutions.move_to_end(key)
            while len(self._resolutions) > _MAX_RESOLUTIONS:
                self._resolutions.popitem(last=False)
        return resolution

    # ---------------------------------------------------------- diagnostics

    def order_preview_for(self, graph: PropertyGraph) -> Tuple[int, ...]:
        """This epoch's stats-derived matching-order preview (canonical
        positions, focus first) — the order ``EXPLAIN`` estimates along."""
        return self.resolution_for(graph).order_preview

    def order_label(self, graph: Optional[PropertyGraph] = None) -> str:
        """Compact ``x0:label>x2:label`` rendering of the stats order.

        With a *graph*, renders that epoch's resolution preview; without one,
        the most recently resolved preview (or canonical position order when
        the plan has never been resolved).  This string is what the
        slow-query log records as the serving plan.
        """
        preview: Tuple[int, ...]
        if graph is not None:
            preview = self.resolution_for(graph).order_preview
        else:
            with self._lock:
                last = next(reversed(self._resolutions)) if self._resolutions else None
                preview = (
                    self._resolutions[last].order_preview
                    if last is not None
                    else tuple(range(len(self.node_labels)))
                )
        return ">".join(f"x{position}:{self.node_labels[position]}" for position in preview)

    def describe(self) -> Dict[str, object]:
        """Introspection payload surfaced by ``QueryService.stats()``."""
        return {
            "fingerprint": self.fingerprint,
            "nodes": len(self.node_labels),
            "edges": len(self.edges),
            "focus": f"x{self.focus_position}:{self.node_labels[self.focus_position]}",
            "quantifiers": sorted(
                {quantifier.describe() for _, _, _, quantifier in self.edges}
            ),
            "order": self.order_label(),
            "compile_seconds": self.compile_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPlan(fingerprint={self.fingerprint[:12]!r}, "
            f"nodes={len(self.node_labels)}, edges={len(self.edges)})"
        )


def compile_plan(
    pattern: QuantifiedGraphPattern,
    fingerprint: Optional[str] = None,
    options_key: object = None,
    form: Optional[object] = None,
) -> CompiledPlan:
    """Compile *pattern* into a :class:`CompiledPlan`.

    *form* is an optional pre-computed
    :class:`~repro.service.patterns.CanonicalPattern`; the service passes its
    memoised one so compilation never re-canonicalizes.  Counts into the
    always-on :func:`plan_compile_count`; the wall time lands on
    ``plan.compile_seconds``.
    """
    global _COMPILE_COUNT
    with Timer() as timer:
        if form is None or fingerprint is None:
            from repro.service.patterns import canonicalize

            form = canonicalize(pattern)
            fingerprint = form.fingerprint if fingerprint is None else fingerprint
        order: Dict[NodeId, int] = form.order
        labels: List[str] = [""] * len(order)
        for node, position in order.items():
            labels[position] = pattern.node_label(node)
        edges = tuple(
            sorted(
                (
                    (order[edge.source], order[edge.target], edge.label, edge.quantifier)
                    for edge in pattern.edges()
                ),
                # Quantifiers are not orderable; (source, target, label) is
                # already a unique edge key, so it alone decides the order.
                key=lambda item: item[:3],
            )
        )
        plan = CompiledPlan(
            fingerprint=fingerprint,
            options_key=options_key,
            node_labels=tuple(labels),
            focus_position=order[pattern.focus],
            edges=edges,
        )
    plan.compile_seconds = timer.elapsed
    _COMPILE_COUNT += 1
    return plan
