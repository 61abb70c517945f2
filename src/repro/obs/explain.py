"""`repro.obs.explain` — EXPLAIN (ANALYZE) for served pattern queries.

A report says what the served engine does with one fingerprint, and —
under ``analyze=True`` — what it did:

* **EXPLAIN** names the pattern's canonical shape (fingerprint and
  quantifiers, from a :class:`repro.plan.CompiledPlan`), how QMatch answers
  it (``strategy`` and ``reason``, from
  :func:`repro.matching.qmatch.query_strategy`), and the per-query averages
  of served traffic from the tier's per-fingerprint ledger
  (:class:`repro.obs.introspect.ServiceIntrospection`).
* **EXPLAIN ANALYZE** evaluates the query once with the tier's own QMatch
  configuration and reports that run's exact work — the
  :class:`~repro.utils.counters.WorkCounter` (verifications, extension
  probes, quantifier checks, prunes and the ``fixpoint.*`` / ``cutset.*``
  decisions), its
  answer count and the strategy it ran
  (:func:`repro.matching.qmatch.strategy_label`).  The counters are the
  ones the oracle suite pins, so ANALYZE reports work, not an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.utils.errors import ServiceError

__all__ = ["ExplainReport", "build_report"]


@dataclass(frozen=True)
class ExplainReport:
    """The EXPLAIN (ANALYZE) payload for one fingerprint on one graph.

    ``strategy`` is how the engine answers the query (``"fixpoint"``: read
    off the candidate fixpoint, no probes; ``"cutset"``: the same pools
    conditioned on each focus candidate, no probes; ``"search"``, with the
    failed precondition as ``reason``); ``None`` for an engine that is not
    QMatch.
    ``traffic`` carries the ledger's per-query averages of served traffic
    (empty when the fingerprint was never computed).

    When ``analyzed``, ``work`` is the ANALYZE run's ``WorkCounter.as_dict()``,
    ``answers`` its answer count and ``strategy_label`` what it ran
    (``"fixpoint"``, ``"cutset"``, ``"search (<reason>)"``, or empty when
    the candidate filter emptied a pool before any strategy ran); all three
    are ``None`` otherwise.
    """

    fingerprint: str
    pattern_name: str
    graph_name: str
    graph_version: object
    quantifiers: Tuple[str, ...]
    analyzed: bool
    traffic: Dict[str, object] = field(default_factory=dict)
    strategy: Optional[str] = None
    reason: Optional[str] = None
    work: Optional[Dict[str, int]] = None
    answers: Optional[int] = None
    strategy_label: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "pattern": self.pattern_name,
            "graph": self.graph_name,
            "version": self.graph_version,
            "quantifiers": list(self.quantifiers),
            "analyzed": self.analyzed,
            "traffic": dict(self.traffic),
            "strategy": self.strategy,
            "reason": self.reason,
            "work": None if self.work is None else dict(self.work),
            "answers": self.answers,
            "strategy_label": self.strategy_label,
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
        if self.analyzed:
            lines.append(
                f"  analyze: ran {self.strategy_label or 'nothing'}, "
                f"{self.answers} answers"
            )
            lines.append(
                "  work: "
                + ", ".join(f"{key}={value}" for key, value in self.work.items())
            )
        traffic = self.traffic
        if traffic.get("queries"):
            lines.append(
                f"  traffic@{traffic.get('epoch')}: {traffic['queries']} computed, "
                f"{traffic['verifications_per_query']:.1f} verifications/query, "
                f"{traffic['extensions_per_query']:.1f} extensions/query, "
                f"{traffic['answers_per_query']:.1f} answers/query"
            )
        else:
            lines.append("  traffic: never computed")
        return "\n".join(lines)


def build_report(
    plan,
    graph,
    pattern,
    traffic: Optional[Dict[str, object]] = None,
    engine=None,
    analyze: bool = False,
) -> ExplainReport:
    """Assemble an :class:`ExplainReport` for *pattern* against *graph*.

    *plan* is the pattern's :class:`repro.plan.CompiledPlan` (duck-typed:
    ``fingerprint`` and the canonical ``edges``).  *engine* is the serving
    tier's :class:`~repro.matching.qmatch.QMatch` configuration, or ``None``
    for any other engine: with it the report names the static ``strategy``
    and ``reason``, and ``analyze=True`` runs ``engine.evaluate(pattern,
    graph)`` once and reports its work.  ``analyze=True`` without a QMatch
    engine raises :class:`~repro.utils.errors.ServiceError`: there is no
    QMatch run whose work could be reported.
    """
    from repro.matching.qmatch import query_strategy, strategy_label

    if analyze and engine is None:
        raise ServiceError(
            "EXPLAIN ANALYZE reports a QMatch run's work; this tier's engine "
            "is not QMatch"
        )
    quantifiers = tuple(
        sorted({quantifier.describe() for _, _, _, quantifier in plan.edges})
    )
    strategy = reason = None
    work = answers = label = None
    if engine is not None:
        strategy, reason = query_strategy(pattern, graph, engine.options)
        if analyze:
            result = engine.evaluate(pattern, graph)
            work = result.counter.as_dict()
            answers = len(result.answer)
            label = strategy_label(result.counter)
    return ExplainReport(
        fingerprint=plan.fingerprint,
        pattern_name=pattern.name,
        graph_name=graph.name,
        graph_version=graph.version,
        quantifiers=quantifiers,
        analyzed=analyze,
        traffic=dict(traffic or {}),
        strategy=strategy,
        reason=reason,
        work=work,
        answers=answers,
        strategy_label=label,
    )
