"""The canonical shape of a pattern, as EXPLAIN reports on it.

The service canonicalizes every pattern to a stable fingerprint
(:mod:`repro.service.patterns`).  A :class:`CompiledPlan` is that
fingerprint's shape in canonical positions: node labels, the focus
position, the canonical edges with their quantifiers.

Nothing here runs a query: every matching path reads its shortcuts (row
stores, degree rows, ``str`` ranks, balls) off the per-epoch
:class:`~repro.index.GraphIndex` snapshot, and every quantifier is checked
through :meth:`CountingQuantifier.checker`.  ``explain()`` compiles once
per call and keeps nothing.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.patterns.qgp import QuantifiedGraphPattern
from repro.patterns.quantifier import CountingQuantifier
from repro.utils.timing import Timer

__all__ = ["CompiledPlan", "compile_plan", "plan_compile_count"]

NodeId = Hashable

# Canonical edge of a plan: (source position, target position, label, quantifier).
PlanEdge = Tuple[int, int, str, CountingQuantifier]

# Process-wide count of plan compilations (always on, like
# ``repro.index.build_call_count``): serving compiles nothing, and each
# ``explain()`` call compiles once; tests read this to pin both down.
_COMPILE_COUNT = 0


def plan_compile_count() -> int:
    """How many :func:`compile_plan` calls have run in this process."""
    return _COMPILE_COUNT


class CompiledPlan:
    """One fingerprint's canonical shape: what EXPLAIN reports on.

    Node labels by canonical position, the focus position and the canonical
    edges; a plan holds no graph state.
    """

    __slots__ = ("fingerprint", "node_labels", "focus_position", "edges", "compile_seconds")

    def __init__(
        self,
        fingerprint: str,
        node_labels: Tuple[str, ...],
        focus_position: int,
        edges: Tuple[PlanEdge, ...],
        compile_seconds: float = 0.0,
    ) -> None:
        self.fingerprint = fingerprint
        self.node_labels = node_labels
        self.focus_position = focus_position
        self.edges = edges
        self.compile_seconds = compile_seconds

    def describe(self) -> Dict[str, object]:
        """The canonical shape as a flat payload."""
        return {
            "fingerprint": self.fingerprint,
            "nodes": len(self.node_labels),
            "edges": len(self.edges),
            "focus": f"x{self.focus_position}:{self.node_labels[self.focus_position]}",
            "quantifiers": sorted(
                {quantifier.describe() for _, _, _, quantifier in self.edges}
            ),
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
            node_labels=tuple(labels),
            focus_position=order[pattern.focus],
            edges=edges,
        )
    plan.compile_seconds = timer.elapsed
    _COMPILE_COUNT += 1
    return plan
