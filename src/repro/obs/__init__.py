"""`repro.obs` — unified observability: metrics, tracing, introspection.

The seventh layer of the stack.  The index, matching, parallel, service and
delta layers each grew their own ad-hoc counters as they were built; this
package gives them one registry (:mod:`repro.obs.metrics`), one span tracer
with cross-process propagation (:mod:`repro.obs.trace`) and one request-level
introspection surface (:mod:`repro.obs.introspect`), while keeping the
default cost at effectively zero: the process-wide registry defaults to a
falsy no-op singleton and the tracer defaults to disabled, so nothing is
recorded — or allocated — until :func:`enable_metrics` / \
:func:`enable_tracing` opt in.

The correctness-critical counters the test suite asserts on
(``GraphIndex.build`` calls, refresh fallbacks) are *always* counted — they
live in :data:`repro.obs.metrics.CORE`, a resettable object the per-test
isolation fixture clears — and are mirrored into the optional registry when
one is active.  See ``docs/OBSERVABILITY.md`` for the executable walkthrough.
"""

from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.introspect import (
    FingerprintStats,
    ServiceIntrospection,
    SlowQueryRecord,
)
from repro.obs.metrics import (
    CORE,
    CoreCounters,
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    parse_exposition,
    set_registry,
)
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

# Imported last: explain leans on the plan/matching layers, which themselves
# import repro.obs.metrics — the late import keeps the package acyclic.
from repro.obs.explain import (
    ExplainReport,
    ExplainStep,
    build_report,
    estimate_steps,
    q_error,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "CoreCounters",
    "CORE",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "active_metrics",
    "parse_exposition",
    "DEFAULT_LATENCY_BUCKETS",
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
    "ExplainStep",
    "ExplainReport",
    "estimate_steps",
    "build_report",
    "q_error",
    # flight recorder
    "FlightEvent",
    "FlightRecorder",
    "reset_observability",
]


def reset_observability() -> None:
    """Restore the pristine observability state (used by the test fixture).

    Installs the no-op registry, disables and drains the tracer, and zeroes
    the always-on core counters — one call makes every test start from the
    same observability state, killing the counter-leak footgun the module
    globals used to have.
    """
    disable_metrics()
    tracer = get_tracer()
    tracer.enabled = False
    tracer.reset()
    CORE.reset()
