"""`repro.obs` — observability: tracing, introspection, flight recorder.

The seventh layer of the stack.  Counts live on the object that counts them
— cache ``stats``, the ``WorkCounter`` on every ``MatchResult``, the pool
counters on the executor — and this package adds what no single object can
hold: one span tracer with cross-process propagation
(:mod:`repro.obs.trace`), one request-level introspection surface
(:mod:`repro.obs.introspect`) and the flight recorder.  Tracing is opt-in
(:func:`enable_tracing`); disabled, ``span(...)`` allocates nothing.

The correctness-critical counters the test suite asserts on
(``GraphIndex.build`` calls, refresh fallbacks) are *always* counted — they
live in :data:`repro.obs.metrics.CORE`, a resettable object the per-test
isolation fixture clears.  See ``docs/OBSERVABILITY.md`` for the executable
walkthrough.
"""

from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.introspect import (
    FingerprintStats,
    ServiceIntrospection,
    SlowQueryRecord,
)
from repro.obs.metrics import CORE, CoreCounters
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    Tracer,
    active_tracing,
    attach,
    build_span_tree,
    current_context,
    disable_tracing,
    enable_tracing,
    format_span_tree,
    get_tracer,
    record_span,
    span,
    tracing_enabled,
)

# Imported last: explain leans on the matching layer, which itself imports
# repro.obs — the late import keeps the package acyclic.
from repro.obs.explain import ExplainReport, build_report

__all__ = [
    # core counters
    "CoreCounters",
    "CORE",
    # trace
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "active_tracing",
    "span",
    "attach",
    "record_span",
    "current_context",
    "build_span_tree",
    "format_span_tree",
    # introspection
    "ServiceIntrospection",
    "FingerprintStats",
    "SlowQueryRecord",
    # explain
    "ExplainReport",
    "build_report",
    # flight recorder
    "FlightEvent",
    "FlightRecorder",
    "reset_observability",
]


def reset_observability() -> None:
    """Restore the pristine observability state (used by the test fixture).

    Disables and drains the tracer and zeroes the always-on core counters —
    one call makes every test start from the same observability state,
    killing the counter-leak footgun the module globals used to have.
    """
    tracer = get_tracer()
    tracer.enabled = False
    tracer.reset()
    CORE.reset()
