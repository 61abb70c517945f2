"""DMatch: quantifier-aware evaluation of positive QGPs (paper Section 4.1).

DMatch revises the generic ``Match`` search in three ways, all implemented
here:

1. **Locality.**  A candidate ``vx`` of the query focus can only be verified
   by nodes inside its d-hop neighbourhood, where ``d`` is the pattern radius
   — the same observation that powers the parallel algorithm.  DMatch
   therefore verifies focus candidates one at a time, restricting every other
   candidate set to the focus candidate's neighbourhood, instead of
   enumerating matches over the whole graph as ``Enum`` does.
2. **Quantifier-aware pruning.**  Candidate sets are pre-filtered by the
   upper bounds ``U(v, e)`` (see :mod:`repro.matching.candidates`), candidates
   are visited in decreasing *potential* order (see
   :mod:`repro.matching.pruning`), and a focus candidate whose local candidate
   sets cannot possibly satisfy some quantifier is rejected without search.
3. **Early termination.**  When every quantifier in the pattern is monotone
   (``≥`` / ``>``), a focus candidate is accepted as soon as one enumeration
   witness satisfies all quantifiers with the counts accumulated so far —
   counts only grow, so the decision is final.  Patterns containing equality
   quantifiers (``= p`` or the universal ``= 100%``) require exact counts and
   fall back to exhausting the local enumeration.

The function returns, besides the focus answer set, the per-pattern-node
binding sets observed in satisfying matches; QMatch caches them for the
incremental processing of negated edges and the QGAR layer reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.graph.traversal import nodes_within_hops
from repro.matching.candidates import CandidateIndex, build_candidate_index
from repro.matching.generic import MatchContext
from repro.matching.pruning import potential_ordering
from repro.matching.result import MatchResult
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import MatchingError
from repro.utils.timing import Timer

__all__ = ["DMatchOptions", "dmatch", "DMatchOutcome"]

NodeId = Hashable

# Degree-row fallback for edge labels absent from the resolved snapshot: every
# probe answers 0, matching ``graph.out_degree`` for a label with no edges.
_EMPTY_ROWS: Dict[NodeId, frozenset] = {}


@dataclass(frozen=True)
class DMatchOptions:
    """Tuning switches for DMatch (each corresponds to a paper optimisation).

    ``use_simulation``   — dual-simulation candidate pre-filter (Lemma 13).
    ``use_potential``    — potential-score candidate ordering (Appendix B).
    ``early_exit``       — stop verifying a focus candidate as soon as a
                           witness satisfies all (monotone) quantifiers.
    ``use_locality``     — additionally intersect candidate sets with the
                           focus candidate's radius-hop neighbourhood.  The
                           anchored search already explores only nodes
                           connected to the focus candidate, so this is off by
                           default; it pays off on patterns whose candidate
                           sets are huge and poorly connected.

    Candidate filtering, the dual-simulation fixpoint and the backtracking
    enumeration always run over the compiled :class:`repro.index.GraphIndex`
    snapshot (CSR adjacency, degree arrays, neighbourhood signatures).
    """

    use_simulation: bool = True
    use_potential: bool = True
    early_exit: bool = True
    use_locality: bool = False


@dataclass
class DMatchOutcome:
    """Answer plus the caches produced while evaluating a positive pattern."""

    answer: Set[NodeId] = field(default_factory=set)
    node_matches: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    index: Optional[CandidateIndex] = None
    counter: WorkCounter = field(default_factory=WorkCounter)
    elapsed: float = 0.0

    def as_match_result(self, engine: str = "DMatch") -> MatchResult:
        return MatchResult(
            answer=set(self.answer),
            positive_answer=set(self.answer),
            node_matches={u: set(vs) for u, vs in self.node_matches.items()},
            counter=self.counter,
            elapsed=self.elapsed,
            engine=engine,
        )


def _pattern_is_monotone(pattern: QuantifiedGraphPattern) -> bool:
    """True when every quantifier is a ``≥``/``>`` aggregate (counts are monotone)."""
    return all(edge.quantifier.op in (">=", ">") for edge in pattern.edges())


def _local_candidate_pools(
    pattern: QuantifiedGraphPattern,
    index: CandidateIndex,
    local_nodes: Set[NodeId],
    label_members: Dict[str, Tuple[Set[NodeId], int]],
) -> Dict[NodeId, Set[NodeId]]:
    """Candidate pools restricted to *local_nodes*, hoisted per label.

    The naive restriction intersects every pattern node's candidate set with
    the ball — one ``O(min(|pool|, |ball|))`` pass *per node*, where pools
    with no quantifier pruning are full label-candidate sets and dominate the
    ball.  Hoisting through the label makes it one pass per *label*
    (``label members ∩ ball``), after which an unpruned pool — recognised by
    size, sound because candidate sets only ever shrink from the label
    members (the :class:`CandidateIndex` build invariant) — serves the
    label-local set as-is, and a pruned pool intersects against the (small)
    label-local set instead of the whole ball.  Pools may share set objects
    (two unpruned nodes of one label); callers treat them as read-only, the
    same contract :class:`MatchContext` already states for its candidates.
    """
    label_local: Dict[str, Set[NodeId]] = {}
    pools: Dict[NodeId, Set[NodeId]] = {}
    for pattern_node in pattern.nodes():
        label = pattern.node_label(pattern_node)
        members, full_size = label_members[label]
        local_label = label_local.get(label)
        if local_label is None:
            local_label = members & local_nodes
            label_local[label] = local_label
        pool = index.candidate_set(pattern_node)
        pools[pattern_node] = (
            local_label if len(pool) == full_size else pool & local_label
        )
    return pools


def _verify_focus_candidate(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    index: CandidateIndex,
    focus_candidate: NodeId,
    radius: int,
    options: DMatchOptions,
    counter: WorkCounter,
    monotone: bool,
    shared_context: MatchContext,
    pattern_edges=None,
    edge_specs=None,
    plan_resolution=None,
    label_members=None,
) -> Tuple[bool, Dict[NodeId, Set[NodeId]]]:
    """Decide whether *focus_candidate* belongs to ``Π(Q)(xo, G)``.

    Returns ``(matched, bindings)`` where *bindings* are the pattern-node →
    graph-node sets drawn from satisfying assignments (used for caching).
    """
    focus = pattern.focus
    counter.verifications += 1

    if options.use_locality:
        # Restrict every candidate set to the focus candidate's radius-hop
        # neighbourhood (costs one BFS per candidate) and search with a
        # per-candidate context.
        if plan_resolution is not None:
            # Same ball, same membership — swept over the plan resolution's
            # flat per-epoch neighbour table instead of per-node set unions.
            local_nodes = plan_resolution.ball(focus_candidate, radius)
        else:
            local_nodes = nodes_within_hops(graph, focus_candidate, radius)
        local_candidates = _local_candidate_pools(
            pattern, index, local_nodes, label_members
        )
        local_candidates[focus] = (
            {focus_candidate} if focus_candidate in index.candidate_set(focus) else set()
        )
        if any(not members for members in local_candidates.values()):
            return False, {}
        # Everything but the pools (rank maps, pattern adjacency, compiled
        # rows) is the query's shared context's, built once per query.
        context = shared_context.with_candidates(local_candidates)
    else:
        # The shared context already carries the filtered candidate pools.
        context = shared_context

    edges = pattern_edges if pattern_edges is not None else pattern.edges()
    matched_children: Dict[Tuple[int, NodeId], Set[NodeId]] = {}
    assignments: List[Dict[NodeId, NodeId]] = []

    if edge_specs is None:

        def assignment_satisfies(assignment: Dict[NodeId, NodeId]) -> bool:
            for edge_index, edge in enumerate(edges):
                counter.quantifier_checks += 1
                bound_source = assignment[edge.source]
                count = len(matched_children.get((edge_index, bound_source), ()))
                total = graph.out_degree(bound_source, edge.label)
                if not edge.quantifier.check(count, total):
                    return False
            return True

    else:
        # Compiled plan: the per-edge attribute chain, quantifier dispatch
        # and the ``out_degree`` method call are lowered to prebound locals,
        # closed-over threshold closures and snapshot degree-row probes.
        # Work accounting is unchanged — one quantifier check per edge until
        # the first failure, exactly like the interpreted loop above.
        children_get = matched_children.get

        def assignment_satisfies(assignment: Dict[NodeId, NodeId]) -> bool:
            edge_index = 0
            for source, check, degree_get in edge_specs:
                counter.quantifier_checks += 1
                bound_source = assignment[source]
                if not check(
                    len(children_get((edge_index, bound_source), ())),
                    len(degree_get(bound_source, ())),
                ):
                    return False
                edge_index += 1
            return True

    bindings: Dict[NodeId, Set[NodeId]] = {}
    matched = False
    for assignment in context.isomorphisms(
        anchor={focus: focus_candidate},
        counter=counter,
    ):
        assignments.append(assignment)
        for edge_index, edge in enumerate(edges):
            matched_children.setdefault(
                (edge_index, assignment[edge.source]), set()
            ).add(assignment[edge.target])
        if monotone and options.early_exit:
            # Counts only grow, so a satisfying witness is conclusive.
            if assignment_satisfies(assignment):
                matched = True
                for pattern_node, graph_node in assignment.items():
                    bindings.setdefault(pattern_node, set()).add(graph_node)
                return True, bindings

    if monotone and options.early_exit:
        # The enumeration finished; re-check all witnesses against the final
        # counts (a witness seen early may satisfy only with later counts).
        for assignment in assignments:
            if assignment_satisfies(assignment):
                matched = True
                for pattern_node, graph_node in assignment.items():
                    bindings.setdefault(pattern_node, set()).add(graph_node)
                break
        return matched, bindings

    # Exact-count path (equality / universal quantifiers present): evaluate
    # every witness against the complete counts.
    for assignment in assignments:
        if assignment_satisfies(assignment):
            matched = True
            for pattern_node, graph_node in assignment.items():
                bindings.setdefault(pattern_node, set()).add(graph_node)
    return matched, bindings


def dmatch(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    options: DMatchOptions = DMatchOptions(),
    index: Optional[CandidateIndex] = None,
    counter: Optional[WorkCounter] = None,
    focus_restriction: Optional[Set[NodeId]] = None,
    plan=None,
    plan_binding=None,
) -> DMatchOutcome:
    """Evaluate a *positive* QGP and return its answer plus caches.

    Parameters
    ----------
    pattern:
        A positive QGP (no negated edges); QMatch passes ``Π(Q)`` here.
    index:
        A pre-built :class:`CandidateIndex`; built from scratch when omitted.
    focus_restriction:
        Verify only these focus candidates (the incremental step passes the
        cached positive answer here).
    plan, plan_binding:
        An optional :class:`repro.plan.CompiledPlan` for this pattern's
        fingerprint plus the pattern-node → canonical-position binding.
        Lowers the quantifier checks and reuses the plan's pre-resolved row
        stores / ``str`` ranks; answers and work counters stay byte-identical
        to the plan-less evaluation.
    """
    if not pattern.is_positive:
        raise MatchingError("dmatch evaluates positive patterns; use QMatch for negation")
    counter = counter if counter is not None else WorkCounter()
    outcome = DMatchOutcome(counter=counter)
    with Timer() as timer:
        if index is None:
            index = build_candidate_index(
                pattern,
                graph,
                use_simulation=options.use_simulation,
                counter=counter,
            )
        outcome.index = index
        outcome.node_matches = {u: set() for u in pattern.nodes()}
        focus = pattern.focus
        focus_candidates = set(index.candidate_set(focus))
        if focus_restriction is not None:
            # Intersect against the iterable directly — ``&= set(...)`` would
            # materialise a throwaway copy of the restriction per call.
            focus_candidates.intersection_update(focus_restriction)

        if index.is_empty() or not index.global_prune_check():
            outcome.elapsed = timer.elapsed
            return outcome

        radius = pattern.radius()
        monotone = _pattern_is_monotone(pattern)
        ordering = None
        if options.use_potential:
            # One global potential ordering is computed per query; the
            # anchored search intersects it with the dynamically derived
            # candidate pools, so per-candidate re-ranking is unnecessary.
            ordering = potential_ordering(pattern, graph, index)
        # One shared search context per query: pattern adjacency, matching
        # order and candidate pools are computed once and reused for every
        # focus candidate (only the anchor binding changes).
        shared_context = MatchContext(
            pattern.stratified(),
            graph,
            candidates={u: index.candidate_set(u) for u in pattern.nodes()},
            candidate_order=ordering,
            anchored_nodes={pattern.focus},
            plan=plan,
            plan_binding=plan_binding,
        )
        label_members = None
        if options.use_locality:
            # Per-query label -> (members, size) table for the hoisted local
            # pool restriction (one ``nodes_with_label`` copy per label per
            # query, instead of one pool-wide intersection per pattern node
            # per focus candidate).
            label_members = {}
            for pattern_node in pattern.nodes():
                label = pattern.node_label(pattern_node)
                if label not in label_members:
                    members = graph.nodes_with_label(label)
                    label_members[label] = (members, len(members))
        pattern_edges = pattern.edges()
        edge_specs = None
        focus_order = None
        resolution = None
        if plan is not None:
            resolution = plan.resolution_for(graph)
            # Lower each live edge to (source, check, degree-row get): the
            # quantifier total ``out_degree(source, label)`` is the length of
            # the snapshot's successor row, so the lowered loop pays one dict
            # probe where the interpreted loop pays a graph method call.
            degree_rows = resolution.out_degree_rows
            edge_specs = tuple(
                (source, check, degree_rows.get(label, _EMPTY_ROWS).get)
                for source, label, check in plan.edge_specs(pattern_edges)
            )
            # The plan's str-rank map orders the focus sweep without
            # stringifying every candidate; equal-str candidates share a rank
            # so the stable sort preserves the key=str order exactly.
            try:
                focus_order = sorted(
                    focus_candidates, key=resolution.str_ranks.__getitem__
                )
            except KeyError:
                focus_order = None
        if focus_order is None:
            focus_order = sorted(focus_candidates, key=str)
        for focus_candidate in focus_order:
            matched, bindings = _verify_focus_candidate(
                pattern,
                graph,
                index,
                focus_candidate,
                radius,
                options,
                counter,
                monotone,
                shared_context=shared_context,
                pattern_edges=pattern_edges,
                edge_specs=edge_specs,
                plan_resolution=resolution,
                label_members=label_members,
            )
            if matched:
                outcome.answer.add(focus_candidate)
                for pattern_node, graph_nodes in bindings.items():
                    outcome.node_matches[pattern_node].update(graph_nodes)
    outcome.elapsed = timer.elapsed
    return outcome
