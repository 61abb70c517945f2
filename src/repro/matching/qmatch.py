"""QMatch: the paper's sequential quantified-matching algorithm (Section 4).

QMatch evaluates an arbitrary QGP ``Q(xo)`` in the three steps of Figure 5:

1. build candidate sets and auxiliary structures (``FilterCandidate`` with
   quantifier upper bounds, optional dual-simulation pre-filter);
2. evaluate the positive part ``Π(Q)`` with :func:`repro.matching.dmatch.dmatch`
   (read off the candidate fixpoint for a tree, conditioned on each focus
   candidate when every cycle runs through the focus, otherwise a search
   with dynamic candidate ordering, pruning, locality and early
   termination);
3. for every negated edge ``e``, evaluate ``Π(Q⁺ᵉ)`` *incrementally* with
   :func:`repro.matching.incremental.inc_qmatch` against the cached results of
   step 2 (each ``Π(Q⁺ᵉ)`` takes DMatch's strategy by the same rule), and
   subtract:
   ``Q(xo, G) = Π(Q)(xo, G) \\ ⋃ₑ Π(Q⁺ᵉ)(xo, G)``.

Each pass records one strategy decision in the counter's extras;
:func:`query_strategy` and :func:`strategy_label` read the query's strategy
as its weakest pass's (``search`` over ``cutset`` over ``fixpoint``).

Two baseline variants used throughout the paper's experiments are provided as
factories:

* :func:`qmatch_engine`   — the full algorithm (``QMatch`` in the figures),
* :func:`qmatch_n_engine` — ``QMatchN``: identical except that every
  ``Π(Q⁺ᵉ)`` is recomputed from scratch with DMatch instead of incrementally.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.index.snapshot import GraphIndex
from repro.matching.dmatch import DMatchOptions, dmatch, pass_strategy
from repro.matching.incremental import inc_qmatch
from repro.matching.result import IncrementalStats, MatchResult
from repro.obs.trace import span
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.timing import Timer

__all__ = [
    "QMatch",
    "qmatch_engine",
    "qmatch_n_engine",
    "query_strategy",
    "strategy_label",
]

_DECLINED = "fixpoint.declined."


class QMatch:
    """Sequential quantified matching with optional incremental negation handling.

    Parameters
    ----------
    use_incremental:
        Process negated edges with IncQMatch (the paper's QMatch) instead of
        recomputing each positified pattern from scratch (QMatchN).
    options:
        The :class:`DMatchOptions` switches controlling the positive-part
        search (simulation pre-filter, potential ordering, locality, early
        exit).
    name:
        Engine name reported in results; defaults to ``"QMatch"`` or
        ``"QMatchN"`` depending on *use_incremental*.
    """

    def __init__(
        self,
        use_incremental: bool = True,
        options: DMatchOptions = DMatchOptions(),
        name: Optional[str] = None,
    ) -> None:
        self.use_incremental = use_incremental
        self.options = options
        self.name = name or ("QMatch" if use_incremental else "QMatchN")

    # ------------------------------------------------------------------ api

    def evaluate(
        self,
        pattern: QuantifiedGraphPattern,
        graph: PropertyGraph,
        focus_restriction: Optional[Set] = None,
    ) -> MatchResult:
        """Compute ``Q(xo, G)`` and return a full :class:`MatchResult`.

        ``focus_restriction`` limits the verified focus candidates to the given
        set — the intra-fragment parallelism of mQMatch relies on it to split
        the owned candidates across threads.
        """
        pattern.validate()
        counter = WorkCounter()
        incremental_stats: list[IncrementalStats] = []
        with span(
            "qmatch.evaluate", pattern=pattern.name, engine=self.name
        ), Timer() as timer:
            positive_part = pattern.pi()
            cached = dmatch(
                positive_part,
                graph,
                options=self.options,
                counter=counter,
                focus_restriction=focus_restriction,
            )
            positive_answer: Set = set(cached.answer)
            answer: Set = set(cached.answer)

            if answer:
                for negated_edge, positified_pi in pattern.positified_pi_patterns():
                    if self.use_incremental:
                        excluded, stats = inc_qmatch(
                            pattern,
                            negated_edge,
                            positified_pi,
                            graph,
                            cached,
                            options=self.options,
                            counter=counter,
                        )
                    else:
                        outcome = dmatch(
                            positified_pi, graph, options=self.options, counter=counter
                        )
                        excluded = set(outcome.answer)
                        stats = IncrementalStats(
                            edge=str(negated_edge),
                            affected_area=set(),
                            verifications=0,
                            removed=set(excluded),
                        )
                    incremental_stats.append(stats)
                    answer -= excluded
                    if not answer:
                        break

        return MatchResult(
            answer=answer,
            positive_answer=positive_answer,
            node_matches={u: set(vs) for u, vs in cached.node_matches.items()},
            counter=counter,
            incremental=incremental_stats,
            elapsed=timer.elapsed,
            engine=self.name,
        )

    def evaluate_answer(self, pattern: QuantifiedGraphPattern, graph: PropertyGraph) -> Set:
        """Convenience wrapper returning only ``Q(xo, G)``."""
        return self.evaluate(pattern, graph).answer


def query_strategy(
    pattern: QuantifiedGraphPattern,
    graph: PropertyGraph,
    options: DMatchOptions = DMatchOptions(),
) -> Tuple[str, Optional[str]]:
    """How QMatch answers *pattern* on *graph*: ``("fixpoint", None)``,
    ``("cutset", None)`` or ``("search", reason)``.

    The weakest pass names the query: the first pass (``Π(Q)``, then each
    ``Π(Q⁺ᵉ)``) that :func:`~repro.matching.dmatch.pass_strategy` sends to
    the search, with its reason; else ``"cutset"`` when some pass
    conditions on the focus; else ``"fixpoint"``.  The same decision DMatch
    counts per pass (``fixpoint.*`` / ``cutset.*`` counter extras), made
    statically for EXPLAIN.
    """
    graph_index = GraphIndex.for_graph(graph)
    passes = [pattern.pi()]
    passes.extend(positified for _, positified in pattern.positified_pi_patterns())
    strategies = set()
    for positive in passes:
        strategy, reason = pass_strategy(positive, graph_index, options)
        if reason is not None:
            return strategy, reason
        strategies.add(strategy)
    return ("cutset" if "cutset" in strategies else "fixpoint"), None


def strategy_label(counter: Optional[WorkCounter]) -> str:
    """What a computed evaluation ran, read off its counter's extras by
    :func:`query_strategy`'s rule.

    ``"search (<reason>)"`` with the first declining pass's reason (DMatch
    bumps the extras pass by pass, and merging keeps that order), else
    ``"cutset"`` when some pass conditioned on the focus, else
    ``"fixpoint"`` when some pass answered from the fixpoint.  Empty when
    the counter holds no decision: a cache hit (no counter), an evaluation
    whose candidate filter emptied a pool before any strategy ran, or an
    engine other than QMatch.
    """
    if counter is None:
        return ""
    extras = counter.extras
    for key in extras:
        if key.startswith(_DECLINED):
            return f"search ({key[len(_DECLINED):]})"
    for strategy in ("cutset", "fixpoint"):
        if strategy + ".answered" in extras:
            return strategy
    return ""


def qmatch_engine(options: DMatchOptions = DMatchOptions()) -> QMatch:
    """The full QMatch engine (incremental negation handling enabled)."""
    return QMatch(use_incremental=True, options=options)


def qmatch_n_engine(options: DMatchOptions = DMatchOptions()) -> QMatch:
    """The QMatchN baseline: negated edges recomputed from scratch."""
    return QMatch(use_incremental=False, options=options)
