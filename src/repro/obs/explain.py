"""`repro.obs.explain` — EXPLAIN ANALYZE for served pattern queries.

A compiled plan (:mod:`repro.plan`) is a pattern's canonical shape: the
fingerprint, the canonical edges and their quantifiers, and the
stats-derived matching-order preview.  This module adds the two numbers an
operator (and an adaptive planner) actually needs per step of that order:

* **estimated** cardinality, from the
  :class:`~repro.graph.statistics.CardinalityModel` (label populations and
  typed-triple degree means — what a cost-based optimiser would predict
  *before* running anything), and
* **observed** cardinality, from the probe counts the matching layer already
  tallies — per-depth when :func:`build_report` re-runs the enumeration
  (``analyze=True``, the EXPLAIN ANALYZE of the title), and as per-query
  averages from served traffic either way.

The traffic averages come from the serving tier's per-fingerprint ledger
(:class:`repro.obs.introspect.ServiceIntrospection`), the **explicit feed for
the adaptive planner** (querytorque-style Q-Error routing): per fingerprint
and per graph epoch it accumulates the computed requests' work counters and
answer sizes, so ``estimate vs observed`` — :func:`q_error` — is computable
for every fingerprint the service lists in ``stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ExplainStep",
    "ExplainReport",
    "estimate_steps",
    "build_report",
    "q_error",
]

NodeId = Hashable


def q_error(estimated: float, observed: float) -> float:
    """The symmetric ratio error ``max(est/obs, obs/est)`` (1.0 is perfect).

    Zero-on-one-side disagreements are infinite by convention — an estimator
    that predicts nothing for real work (or work for nothing) is maximally
    wrong, and the planning literature treats it that way.
    """
    if estimated <= 0.0 and observed <= 0.0:
        return 1.0
    if estimated <= 0.0 or observed <= 0.0:
        return float("inf")
    ratio = estimated / observed
    return ratio if ratio >= 1.0 else 1.0 / ratio


@dataclass(frozen=True)
class ExplainStep:
    """One step of a matching order, estimated and (optionally) observed.

    ``estimated`` is the expected candidate-pool size when this step extends
    one partial embedding; ``cumulative`` is the expected number of partial
    embeddings alive *after* the step (the product of the pool sizes so
    far).  ``observed`` is the number of extension probes actually performed
    at this depth when the report was built with ``analyze=True``, else
    ``None`` — per-depth observation requires running the search.
    """

    index: int
    node: str
    role: str  # "focus" | "extend"
    estimated: float
    cumulative: float
    observed: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "node": self.node,
            "role": self.role,
            "estimated": self.estimated,
            "cumulative": self.cumulative,
            "observed": self.observed,
        }


def estimate_steps(
    order: Sequence[NodeId],
    labels: Mapping[NodeId, str],
    edges: Sequence[Tuple[NodeId, NodeId, str]],
    model,
    focus: Optional[NodeId] = None,
    render=None,
) -> List[ExplainStep]:
    """Per-step cardinality estimates for *order* under *model*.

    Generic over the node key space — canonical positions (plan previews)
    and live pattern nodes (ANALYZE runs) both work; *edges* are
    ``(source, target, edge label)`` triples in the same key space.  Each
    step's estimate is the tightest single-constraint bound: the minimum,
    over pattern edges into the already-placed region, of the expected typed
    pool (:meth:`CardinalityModel.expected_pool`); a step with no active
    constraint falls back to its label population — exactly the information
    order the backtracking search itself exploits.
    """
    if render is None:
        render = lambda key: f"{key}:{labels[key]}"
    steps: List[ExplainStep] = []
    placed: set = set()
    cumulative = 1.0
    for index, key in enumerate(order):
        label = labels[key]
        bounds: List[float] = []
        for source, target, edge_label in edges:
            if source == key and target in placed:
                bounds.append(
                    model.expected_pool(label, edge_label, labels[target], outgoing=True)
                )
            elif target == key and source in placed:
                bounds.append(
                    model.expected_pool(label, edge_label, labels[source], outgoing=False)
                )
        if bounds:
            estimated = min(bounds)
        else:
            estimated = float(model.label_count(label))
        cumulative *= estimated
        steps.append(
            ExplainStep(
                index=index,
                node=render(key),
                role="focus" if key == focus else "extend",
                estimated=estimated,
                cumulative=cumulative,
            )
        )
        placed.add(key)
    return steps


# --------------------------------------------------------------------------
# The report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplainReport:
    """The EXPLAIN (ANALYZE) payload for one fingerprint on one graph.

    ``steps`` follow the matching order the report was built for: the
    per-epoch stats-derived preview for plain EXPLAIN, the live search order
    when ``analyzed`` (the ANALYZE run uses the same per-query ordering rule
    the real search does).  ``traffic`` carries the ledger's per-query
    averages of served traffic (empty dict when the fingerprint
    was never computed), and the volume/q-error fields compare the model's
    predicted probe volume against whichever observation is available —
    the ANALYZE run's exact probe count, else the traffic average.

    ``strategy`` is how the engine answers the query (``"fixpoint"``: read
    off the candidate fixpoint, no probes; ``"search"``, with the failed
    precondition as ``reason``); ``None`` for an engine that is not QMatch.
    """

    fingerprint: str
    pattern_name: str
    graph_name: str
    graph_version: object
    quantifiers: Tuple[str, ...]
    steps: Tuple[ExplainStep, ...]
    analyzed: bool
    analyze_matches: Optional[int] = None
    analyze_probes: Optional[int] = None
    traffic: Dict[str, object] = field(default_factory=dict)
    strategy: Optional[str] = None
    reason: Optional[str] = None

    @property
    def estimated_volume(self) -> float:
        """Predicted total extension probes: one per expected live embedding."""
        return sum(step.cumulative for step in self.steps)

    @property
    def observed_volume(self) -> Optional[float]:
        if self.analyze_probes is not None:
            return float(self.analyze_probes)
        per_query = self.traffic.get("extensions_per_query")
        if per_query:
            return float(per_query)
        return None

    @property
    def volume_q_error(self) -> Optional[float]:
        observed = self.observed_volume
        if observed is None:
            return None
        return q_error(self.estimated_volume, observed)

    def as_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "pattern": self.pattern_name,
            "graph": self.graph_name,
            "version": self.graph_version,
            "quantifiers": list(self.quantifiers),
            "steps": [step.as_dict() for step in self.steps],
            "analyzed": self.analyzed,
            "analyze_matches": self.analyze_matches,
            "analyze_probes": self.analyze_probes,
            "estimated_volume": self.estimated_volume,
            "observed_volume": self.observed_volume,
            "volume_q_error": self.volume_q_error,
            "traffic": dict(self.traffic),
            "strategy": self.strategy,
            "reason": self.reason,
        }

    def render(self) -> str:
        """The operator-facing text rendering (EXPLAIN ANALYZE style)."""
        mode = "EXPLAIN ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [
            f"{mode} {self.fingerprint[:12]} ({self.pattern_name or 'unnamed'}) "
            f"on {self.graph_name}@{self.graph_version}"
        ]
        if self.quantifiers:
            lines.append(f"  quantifiers: {', '.join(self.quantifiers)}")
        if self.strategy == "search":
            lines.append(f"  strategy: search ({self.reason})")
        elif self.strategy is not None:
            lines.append(f"  strategy: {self.strategy}")
        lines.append(f"  order: {' > '.join(step.node for step in self.steps)}")
        for step in self.steps:
            observed = "" if step.observed is None else f"  obs_probes={step.observed}"
            lines.append(
                f"  step {step.index}  {step.node:<24} {step.role:<6} "
                f"est={step.estimated:.1f}  cum={step.cumulative:.1f}{observed}"
            )
        observed_volume = self.observed_volume
        if observed_volume is not None:
            lines.append(
                f"  probe volume: estimated {self.estimated_volume:.1f}, "
                f"observed {observed_volume:.1f}, q-error {self.volume_q_error:.2f}"
            )
        else:
            lines.append(
                f"  probe volume: estimated {self.estimated_volume:.1f}, never observed"
            )
        if self.analyzed:
            lines.append(
                f"  analyze: {self.analyze_matches} embeddings, "
                f"{self.analyze_probes} probes"
            )
        traffic = self.traffic
        if traffic.get("queries"):
            lines.append(
                f"  traffic@{traffic.get('epoch')}: {traffic['queries']} computed, "
                f"{traffic['verifications_per_query']:.1f} verifications/query, "
                f"{traffic['extensions_per_query']:.1f} extensions/query, "
                f"{traffic['answers_per_query']:.1f} answers/query"
            )
        return "\n".join(lines)


def build_report(
    plan,
    graph,
    pattern=None,
    traffic: Optional[Dict[str, object]] = None,
    analyze: bool = False,
    analyze_limit: Optional[int] = None,
    options=None,
) -> ExplainReport:
    """Assemble an :class:`ExplainReport` for *plan* against *graph*.

    *plan* is a :class:`repro.plan.CompiledPlan` (duck-typed: the canonical
    shape plus ``order_preview_for``).  With ``analyze=True`` a live
    *pattern* object is required: the topological enumeration re-runs with a
    per-depth probe profile (:meth:`MatchContext.isomorphisms`'s
    ``probe_profile``), giving exact observed cardinalities under the same
    ordering rule production queries use — quantifier counting is layered
    above this search, so the profile covers the probe volume the work
    counters count as ``extensions``.  ``analyze_limit`` bounds the number
    of embeddings enumerated (the profile then covers the truncated run).
    *options* are the serving QMatch engine's
    :class:`~repro.matching.DMatchOptions`; with a live *pattern* they set
    the report's ``strategy`` and ``reason``
    (:func:`repro.matching.qmatch.query_strategy`).
    """
    from repro.graph.statistics import cardinality_model

    model = cardinality_model(graph)
    quantifiers = tuple(
        sorted({quantifier.describe() for _, _, _, quantifier in plan.edges})
    )
    analyzed = False
    analyze_matches: Optional[int] = None
    analyze_probes: Optional[int] = None
    if analyze and pattern is not None:
        from repro.matching.generic import MatchContext

        context = MatchContext(pattern, graph)
        profile: Dict[int, int] = {}
        matches = 0
        for _ in context.isomorphisms(probe_profile=profile, limit=analyze_limit):
            matches += 1
        labels = {node: pattern.node_label(node) for node in pattern.nodes()}
        triples = [
            (edge.source, edge.target, edge.label) for edge in pattern.edges()
        ]
        steps = [
            ExplainStep(
                index=step.index,
                node=step.node,
                role=step.role,
                estimated=step.estimated,
                cumulative=step.cumulative,
                observed=profile.get(step.index, 0),
            )
            for step in estimate_steps(
                context.order,
                labels,
                triples,
                model,
                focus=pattern.focus if pattern.has_focus() else None,
            )
        ]
        analyzed = True
        analyze_matches = matches
        analyze_probes = sum(profile.values())
    else:
        order = plan.order_preview_for(graph)
        labels = {position: plan.node_labels[position] for position in order}
        triples = [(source, target, label) for source, target, label, _ in plan.edges]
        steps = estimate_steps(
            order,
            labels,
            triples,
            model,
            focus=plan.focus_position,
            render=lambda position: f"x{position}:{labels[position]}",
        )
    strategy = reason = None
    if options is not None and pattern is not None:
        from repro.matching.qmatch import query_strategy

        strategy, reason = query_strategy(pattern, graph, options)
    return ExplainReport(
        fingerprint=plan.fingerprint,
        pattern_name=(pattern.name if pattern is not None else ""),
        graph_name=graph.name,
        graph_version=graph.version,
        quantifiers=quantifiers,
        steps=tuple(steps),
        analyzed=analyzed,
        analyze_matches=analyze_matches,
        analyze_probes=analyze_probes,
        traffic=dict(traffic or {}),
        strategy=strategy,
        reason=reason,
    )
