"""DMatch: quantifier-aware evaluation of positive QGPs (paper Section 4.1).

DMatch answers a positive pattern by one of three strategies, chosen per
query after the candidate filter (:mod:`repro.matching.candidates`) has run:

* **fixpoint** — when ``Π(Q)`` is an undirected tree and injectivity is
  implied, the candidate fixpoint is exact arc consistency: every surviving
  candidate extends to an isomorphism, and ``|succₑ(vx) ∩ C(u')|`` *is*
  ``|Me(vx, vx, Q)|`` for a focus out-edge ``e = (xo, u')``.  The answer is
  then read off the pools — one ``len(row & pool)`` per quantified focus edge
  and candidate, and no verification at all (Freuder's backtrack-free
  theorem; the per-parent count of an acyclic aggregate query is one
  message pass).
* **cutset** — when every cycle of ``Π(Q)`` runs through the focus, fixing
  ``xo := vx`` leaves a forest (cycle-cutset conditioning, with the focus as
  the cutset).  For each candidate ``vx`` the pools of the focus neighbours
  on those cycles are intersected with ``succₑ(vx)`` / ``predₑ(vx)``, a
  worklist seeded there restores arc consistency over the forest edges (one
  ``row.isdisjoint(pool)`` per value), and ``|Me(vx, e)|`` is the size of the
  conditioned pool of ``e``'s target.  Again no verification.  The tree is
  the case with nothing to condition, so both strategies are one kernel.

  :func:`fixpoint_decline_reason` states the preconditions of both, and
  :func:`pass_strategy` names the one that runs; every decision is counted
  as a ``WorkCounter`` extra (``fixpoint.answered``, ``cutset.answered`` or
  ``fixpoint.declined.<reason>``).
* **search** — otherwise DMatch revises the generic ``Match`` search:

  1. **Locality.**  A candidate ``vx`` of the query focus can only be
     verified by nodes inside its d-hop neighbourhood, where ``d`` is the
     pattern radius — the same observation that powers the parallel
     algorithm.  The search therefore verifies focus candidates one at a
     time (optionally restricting every other pool to the candidate's
     neighbourhood), instead of enumerating matches over the whole graph as
     ``Enum`` does.
  2. **Quantifier-aware pruning.**  Candidate sets are pre-filtered by the
     upper bounds ``U(v, e)``, candidates are visited in decreasing
     *potential* order (see :mod:`repro.matching.pruning`), and a focus
     candidate whose local candidate sets cannot possibly satisfy some
     quantifier is rejected without search.
  3. **Early termination.**  When every quantifier in the pattern is
     monotone (``≥`` / ``>``), a focus candidate is accepted as soon as one
     enumeration witness satisfies all quantifiers with the counts
     accumulated so far — counts only grow, so the decision is final.
     Patterns containing equality quantifiers (``= p`` or the universal
     ``= 100%``) require exact counts and fall back to exhausting the local
     enumeration.

The function returns, besides the focus answer set, per-pattern-node binding
sets; QMatch caches them for the incremental processing of negated edges.
The fixpoint and cutset strategies return exactly the oracle's ``Q(u, G)``
(every node in some satisfying match); the early-exit search keeps one
witness per answer, so its sets may be smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.graph.simulation import refine_candidates
from repro.index.snapshot import GraphIndex
from repro.matching.candidates import CandidateIndex, build_candidate_index
from repro.matching.generic import MatchContext
from repro.matching.pruning import potential_ordering
from repro.matching.result import MatchResult
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import MatchingError
from repro.utils.timing import Timer

__all__ = [
    "DMatchOptions",
    "dmatch",
    "DMatchOutcome",
    "fixpoint_decline_reason",
    "pass_strategy",
]

NodeId = Hashable

_EMPTY_ROW: frozenset = frozenset()


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


def _focus_cut(pattern: QuantifiedGraphPattern) -> Optional[Set[NodeId]]:
    """The pattern nodes whose pools fixing ``xo := vx`` must refine.

    ``None`` when ``Π(Q)`` minus the focus is not a simple forest: some
    pattern edge is a self-loop, two edges join one pair of non-focus nodes,
    an undirected cycle avoids the focus, or the focus does not reach every
    node.  Otherwise the nodes of every component of ``Π(Q) − xo`` that
    touches the focus through two or more edges: each further touch closes a
    cycle through the focus.  Empty exactly when ``Π(Q)`` is a simple tree.
    """
    focus = pattern.focus
    adjacency: Dict[NodeId, List[NodeId]] = {
        node: [] for node in pattern.nodes() if node != focus
    }
    touches: List[NodeId] = []
    pairs = set()
    for edge in pattern.edges():
        source, target = edge.source, edge.target
        if source == target:
            return None
        if source == focus or target == focus:
            touches.append(target if source == focus else source)
            continue
        pair = frozenset((source, target))
        if pair in pairs:
            return None
        pairs.add(pair)
        adjacency[source].append(target)
        adjacency[target].append(source)
    component_of: Dict[NodeId, NodeId] = {}
    components = 0
    cut: Set[NodeId] = set()
    for start in adjacency:
        if start in component_of:
            continue
        components += 1
        component_of[start] = start
        members = [start]
        for node in members:
            for neighbour in adjacency[node]:
                if neighbour not in component_of:
                    component_of[neighbour] = start
                    members.append(neighbour)
        hits = sum(1 for node in touches if component_of.get(node) == start)
        if hits == 0:
            return None
        if hits > 1:
            cut.update(members)
    if len(pairs) != len(adjacency) - components:
        return None
    return cut


def fixpoint_decline_reason(
    pattern: QuantifiedGraphPattern,
    graph_index,
    options: DMatchOptions,
    index: Optional[CandidateIndex] = None,
) -> Optional[str]:
    """Why *pattern*'s answer cannot be read off its candidate fixpoint.

    ``None`` when it can: then, with the focus fixed to any candidate
    ``vx``, every candidate that arc consistency over the rest of the
    pattern keeps occurs in some isomorphism mapping ``xo`` to ``vx``, and
    the counts the focus quantifiers need are the pools' own.  Otherwise the
    first failed precondition, which names the ``fixpoint.declined.<reason>``
    counter extra:

    1. ``no_simulation`` — the dual-simulation switch is off, or (checked
       last, so a caller's pools never mask a structural reason) *index* is
       not a completed fixpoint: arc consistency needs both;
    2. ``cyclic`` — ``Π(Q)`` minus the focus is not a simple forest: a
       pattern self-loop, two edges joining one pair of non-focus nodes, a
       cycle that avoids the focus, or a node the focus does not reach;
    3. ``shared_label`` — two pattern nodes (the focus included) share a
       label but are not adjacent, so a homomorphism may bind both to one
       graph node;
    4. ``self_loop`` — two adjacent same-label nodes, and *graph_index* has
       a self-loop on a label of an edge joining them (the one way they can
       collapse);
    5. ``non_focus_quantifier`` — an edge that does not leave the focus has
       a non-existential quantifier, whose count would depend on the rest of
       the match.

    Patterns are tiny (a handful of nodes), so this runs per query.
    """
    if not options.use_simulation:
        return "no_simulation"
    if _focus_cut(pattern) is None:
        return "cyclic"
    edges = pattern.edges()
    pair_labels: Dict[frozenset, List[str]] = {}
    for edge in edges:
        pair_labels.setdefault(frozenset((edge.source, edge.target)), []).append(edge.label)
    by_label: Dict[str, List[NodeId]] = {}
    for node in pattern.nodes():
        by_label.setdefault(pattern.node_label(node), []).append(node)
    loop_labels: List[str] = []
    for nodes in by_label.values():
        for position, first in enumerate(nodes):
            for second in nodes[position + 1:]:
                labels = pair_labels.get(frozenset((first, second)))
                if labels is None:
                    return "shared_label"
                loop_labels.extend(labels)
    if any(graph_index.has_self_loop(label) for label in loop_labels):
        return "self_loop"
    focus = pattern.focus
    if any(edge.source != focus and not edge.is_existential for edge in edges):
        return "non_focus_quantifier"
    if index is not None and not index.at_fixpoint:
        return "no_simulation"
    return None


def pass_strategy(
    pattern: QuantifiedGraphPattern,
    graph_index,
    options: DMatchOptions,
    index: Optional[CandidateIndex] = None,
) -> Tuple[str, Optional[str]]:
    """How DMatch answers one positive pass: ``("fixpoint", None)`` for a
    simple tree, ``("cutset", None)`` when cycles run through the focus
    only, else ``("search", reason)`` with
    :func:`fixpoint_decline_reason`'s reason."""
    reason = fixpoint_decline_reason(pattern, graph_index, options, index)
    if reason is not None:
        return "search", reason
    return ("cutset" if _focus_cut(pattern) else "fixpoint"), None


class _FocusConditioning:
    """Arc consistency with the focus fixed, bound once per pass.

    Fixing ``xo := vx`` turns every focus edge into a unary constraint on
    its other end, and what is left of the cut (see :func:`_focus_cut`) is
    a forest, on which arc consistency is exact.  Bound here once: per
    focus edge into the cut, its other end and the row store giving
    ``succₑ(vx)`` (an out-edge) or ``predₑ(vx)`` (an in-edge); per cut node
    ``n``, the arcs ``(w, row store)`` of its forest neighbours ``w``, whose
    rows point from ``w`` towards ``n``.
    """

    def __init__(
        self,
        pattern: QuantifiedGraphPattern,
        graph_index,
        pools: Dict[NodeId, Set[NodeId]],
        cut: Set[NodeId],
    ) -> None:
        focus = pattern.focus
        rows = graph_index.label_rows
        self.pools = pools
        conditions = []
        arcs: Dict[NodeId, List[tuple]] = {node: [] for node in cut}
        for edge in pattern.edges():
            source, target = edge.source, edge.target
            if source == focus:
                if target in cut:
                    conditions.append((target, rows(False, edge.label).get))
            elif target == focus:
                if source in cut:
                    conditions.append((source, rows(True, edge.label).get))
            elif source in cut:
                # Revise the source against the target through its
                # successors, and the target against the source through its
                # predecessors.
                arcs[target].append((source, rows(False, edge.label).get))
                arcs[source].append((target, rows(True, edge.label).get))
        self.conditions = tuple(conditions)
        self.arcs = {node: tuple(node_arcs) for node, node_arcs in arcs.items()}

    def conditioned_pools(
        self, focus_candidate: NodeId
    ) -> Optional[Dict[NodeId, Set[NodeId]]]:
        """The pools given ``xo := focus_candidate``, or ``None`` when one
        empties (no isomorphism maps the focus there).

        Each focus neighbour's pool is intersected with the candidate's
        row, and a worklist seeded at the pools that shrank revises the
        forest arcs into them: one ``row.isdisjoint(pool)`` per value.  A
        pool that shrinks re-schedules its other forest neighbours; the arc
        it was revised against needs no second look, since a value it lost
        supported nothing there.
        """
        pools = dict(self.pools)
        arcs = self.arcs
        pending = []
        for node, row_get in self.conditions:
            pool = pools[node]
            narrowed = pool & row_get(focus_candidate, _EMPTY_ROW)
            if len(narrowed) != len(pool):
                if not narrowed:
                    return None
                pools[node] = narrowed
                for arc in arcs[node]:
                    pending.append((arc, node))
        while pending:
            (node, row_get), support_node = pending.pop()
            pool = pools[node]
            support = pools[support_node]
            kept = {
                value for value in pool
                if not row_get(value, _EMPTY_ROW).isdisjoint(support)
            }
            if len(kept) != len(pool):
                if not kept:
                    return None
                pools[node] = kept
                for arc in arcs[node]:
                    if arc[0] != support_node:
                        pending.append((arc, node))
        return pools


def _answer_from_fixpoint(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    graph_index,
    index: CandidateIndex,
    focus_candidates: Set[NodeId],
    counter: WorkCounter,
    outcome: DMatchOutcome,
) -> None:
    """The fixpoint and cutset strategies: the answer and ``Q(u, G)`` read
    off the pools, conditioned on each focus candidate where the pattern's
    cut (see :func:`_focus_cut`) is not empty.

    Only the focus's quantified out-edges need a count: an existential edge
    holds for every candidate with an isomorphism, and the preconditions
    leave no other quantifier.  A target outside the cut sits in a subtree
    the focus touches once, so its count is ``|succₑ(vx) ∩ C(u')|``, one
    C-level ``len(row & pool)``; a target in the cut counts its pool after
    :class:`_FocusConditioning`.  One quantifier check is counted per edge
    until the first failure, and no verification at all.
    """
    focus = pattern.focus
    pools = index.candidates
    cut = _focus_cut(pattern)
    checks = [
        (
            edge.target if edge.target in cut else None,
            graph_index.label_rows(False, edge.label).get,
            index.candidate_set(edge.target),
            edge.quantifier.checker(),
        )
        for edge in pattern.out_edges(focus)
        if not edge.is_existential
    ]
    conditioned_pools = (
        _FocusConditioning(pattern, graph_index, pools, cut).conditioned_pools
        if cut
        else None
    )
    unions: Dict[NodeId, Set[NodeId]] = {node: set() for node in cut}
    answer = set()
    performed = 0
    for candidate in focus_candidates:
        conditioned = pools
        if conditioned_pools is not None:
            conditioned = conditioned_pools(candidate)
            if conditioned is None:
                continue
        for target, row_get, pool, check in checks:
            performed += 1
            row = row_get(candidate, _EMPTY_ROW)
            count = len(row & pool) if target is None else len(conditioned[target])
            if not check(count, len(row)):
                break
        else:
            answer.add(candidate)
            for node, union in unions.items():
                union |= conditioned[node]
    counter.quantifier_checks += performed
    outcome.answer = answer
    if not answer:
        return  # dmatch starts every node's match set empty
    # Q(u, G): the cut's pools are the union of the answers' conditioned
    # pools, which is exact; the subtrees the focus touches once need one
    # more arc-consistency pass with C(xo) := answer, unless nothing left
    # the focus pool.
    exact = {**unions, focus: answer}
    if len(exact) == pattern.num_nodes:
        outcome.node_matches = exact
    elif not cut and len(answer) == len(pools[focus]):
        outcome.node_matches = {u: set(pools[u]) for u in pattern.nodes()}
    else:
        outcome.node_matches = refine_candidates(
            pattern.stratified().graph, graph, {**pools, **exact}
        )


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


class _FocusVerifier:
    """One query's focus-candidate verification, bound once per query.

    DMatch verifies focus candidates one at a time, so any per-verification
    set-up is paid ``|C(xo)|`` times.  Everything that does not depend on the
    candidate is therefore bound here once: the anchored search over the
    query's shared context, the pattern edges' ``(index, source, target)``
    ends, and the quantifier check's edge specs ``(source, check, degree
    row)``: each quantifier's prebound :meth:`CountingQuantifier.checker`,
    and the snapshot's successor rows of the edge label, whose ``len`` is
    the quantifier total ``out_degree(source, label)``.  One quantifier
    check is counted per edge until the first failure.
    """

    def __init__(
        self,
        pattern: QuantifiedGraphPattern,
        graph: PropertyGraph,
        index: CandidateIndex,
        options: DMatchOptions,
        counter: WorkCounter,
        context: MatchContext,
        graph_index: GraphIndex,
    ) -> None:
        self.pattern = pattern
        self.graph = graph
        self.index = index
        self.counter = counter
        self.context = context
        self.focus = pattern.focus
        # Computed even without locality: it also rejects a disconnected
        # pattern (PatternError), as DMatch always has.
        self.radius = pattern.radius()
        self.graph_index = graph_index
        self.early_exit = options.early_exit and _pattern_is_monotone(pattern)
        edges = pattern.edges()
        self.edge_ends = tuple(
            (edge_index, edge.source, edge.target)
            for edge_index, edge in enumerate(edges)
        )
        self.edge_specs = tuple(
            (
                edge.source,
                edge.quantifier.checker(),
                graph_index.label_rows(False, edge.label).get,
            )
            for edge in edges
        )
        self.label_members = None
        if options.use_locality:
            # Per-query label -> (members, size) table for the hoisted local
            # pool restriction (one ``nodes_with_label`` copy per label per
            # query, instead of one pool-wide intersection per pattern node
            # per focus candidate).
            self.label_members = {}
            for pattern_node in pattern.nodes():
                label = pattern.node_label(pattern_node)
                if label not in self.label_members:
                    members = graph.nodes_with_label(label)
                    self.label_members[label] = (members, len(members))
            self.search = None
        else:
            # The shared context already carries the filtered candidate pools.
            self.search = context.searcher(counter)

    def satisfies(self, assignment, matched_children) -> bool:
        """Does *assignment* satisfy every quantifier under the counts so far?"""
        counter = self.counter
        children_get = matched_children.get
        edge_index = 0
        for source, check, degree_get in self.edge_specs:
            counter.quantifier_checks += 1
            bound_source = assignment[source]
            if not check(
                len(children_get((edge_index, bound_source), ())),
                len(degree_get(bound_source, ())),
            ):
                return False
            edge_index += 1
        return True

    def _local_search(self, focus_candidate: NodeId):
        """A search over pools restricted to the candidate's radius-hop ball.

        Costs one BFS per candidate; ``None`` when some restricted pool is
        empty (no search can succeed).  Everything but the pools (rank maps,
        pattern adjacency, compiled rows) is the query's shared context's.
        """
        index = self.index
        local_nodes = self.graph_index.nodes_within_hops(focus_candidate, self.radius)
        local_candidates = _local_candidate_pools(
            self.pattern, index, local_nodes, self.label_members
        )
        local_candidates[self.focus] = (
            {focus_candidate}
            if focus_candidate in index.candidate_set(self.focus)
            else set()
        )
        for members in local_candidates.values():
            if not members:
                return None
        return self.context.with_candidates(local_candidates).searcher(self.counter)

    def _verify_focus_candidate(self, focus_candidate: NodeId) -> List[Dict[NodeId, NodeId]]:
        """Decide whether *focus_candidate* belongs to ``Π(Q)(xo, G)``.

        Returns the satisfying assignments (empty: not a match); their
        bindings feed the per-pattern-node caches.
        """
        self.counter.verifications += 1
        search = self.search
        if search is None:
            search = self._local_search(focus_candidate)
            if search is None:
                return []
        satisfies = self.satisfies
        early_exit = self.early_exit
        edge_ends = self.edge_ends
        matched_children: Dict[Tuple[int, NodeId], Set[NodeId]] = {}
        children_get = matched_children.get
        assignments: List[Dict[NodeId, NodeId]] = []
        for assignment in search.run({self.focus: focus_candidate}):
            assignments.append(assignment)
            for edge_index, source, target in edge_ends:
                key = (edge_index, assignment[source])
                children = children_get(key)
                if children is None:
                    matched_children[key] = {assignment[target]}
                else:
                    children.add(assignment[target])
            # Counts only grow, so a satisfying witness is conclusive.
            if early_exit and satisfies(assignment, matched_children):
                return [assignment]
        if early_exit:
            # The enumeration finished; re-check all witnesses against the
            # final counts (a witness seen early may satisfy only with later
            # counts).
            for assignment in assignments:
                if satisfies(assignment, matched_children):
                    return [assignment]
            return []
        # Exact-count path (equality / universal quantifiers present, or
        # early exit off): evaluate every witness against the complete counts.
        witnesses = []
        for assignment in assignments:
            if satisfies(assignment, matched_children):
                witnesses.append(assignment)
        return witnesses


def dmatch(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    options: DMatchOptions = DMatchOptions(),
    index: Optional[CandidateIndex] = None,
    counter: Optional[WorkCounter] = None,
    focus_restriction: Optional[Set[NodeId]] = None,
) -> DMatchOutcome:
    """Evaluate a *positive* QGP and return its answer plus caches.

    Parameters
    ----------
    pattern:
        A positive QGP (no negated edges); QMatch passes ``Π(Q)`` here.
    index:
        A pre-built :class:`CandidateIndex`; built from scratch when omitted.
    focus_restriction:
        Answer only for these focus candidates (the incremental step passes
        the cached positive answer here).

    After the candidate filter and the Lemma 12 check, the answer comes
    from the pools (conditioned on each focus candidate when a cycle runs
    through the focus) when :func:`fixpoint_decline_reason` finds no reason
    against it, and from the search otherwise; *counter* records which
    (``fixpoint.answered`` / ``cutset.answered`` /
    ``fixpoint.declined.<reason>``).
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

        graph_index = GraphIndex.for_graph(graph)
        strategy, reason = pass_strategy(pattern, graph_index, options, index)
        if reason is None:
            counter.bump(strategy + ".answered")
            _answer_from_fixpoint(
                pattern, graph, graph_index, index, focus_candidates, counter, outcome
            )
            outcome.elapsed = timer.elapsed
            return outcome
        counter.bump("fixpoint.declined." + reason)

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
        )
        # The snapshot's str-rank map orders the focus sweep without
        # stringifying every candidate; equal-str candidates share a rank,
        # so the stable sort keeps the key=str order exactly.
        try:
            focus_order = sorted(
                focus_candidates, key=graph_index.str_ranks().__getitem__
            )
        except KeyError:
            focus_order = sorted(focus_candidates, key=str)
        verify = _FocusVerifier(
            pattern, graph, index, options, counter, shared_context, graph_index
        )._verify_focus_candidate
        answer_add = outcome.answer.add
        node_matches = outcome.node_matches
        for focus_candidate in focus_order:
            witnesses = verify(focus_candidate)
            if witnesses:
                answer_add(focus_candidate)
                for witness in witnesses:
                    for pattern_node, graph_node in witness.items():
                        node_matches[pattern_node].add(graph_node)
    outcome.elapsed = timer.elapsed
    return outcome
