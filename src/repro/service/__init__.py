"""Query-serving layer: canonicalized patterns, cached answers, batched dispatch.

``repro.service`` is the request-level subsystem in front of the matching and
parallel layers — the piece a system serving heavy query traffic needs on top
of fast single-query evaluation:

* :mod:`repro.service.patterns` — a canonical form and stable SHA-256
  fingerprint for :class:`~repro.patterns.qgp.QuantifiedGraphPattern`
  (rename-, edge-order- and quantifier-spelling-invariant), so equivalent
  queries share one identity;
* :mod:`repro.service.cache` — a bounded LRU answer cache keyed on
  ``(graph, graph.version, fingerprint, engine options)`` that piggybacks on
  the graph's mutation counter: structural changes invalidate by
  unreachability, attribute updates keep it warm;
* :mod:`repro.service.pipeline` — the one request path both serving tiers
  run: canonicalize, serve hits from cache, deduplicate the misses of a
  batch, compute them in one round, record — plus the dispatcher loop behind
  ``submit``, ``explain`` and ``close``;
* :mod:`repro.service.server` — :class:`QueryService`, its single-graph
  backend: misses ship through the coordinator's persistent executor in one
  batched round, with a thread-safe ``submit`` for concurrent callers
  (:class:`repro.serve.ShardedService` is the fleet backend).

See ``docs/ARCHITECTURE.md`` for how this layer composes with the graph,
index, matching and parallel layers, and ``benchmarks/bench_serving.py`` for
the throughput figure it is measured by.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.patterns import (
    CanonicalPattern,
    canonicalize,
    normalize_quantifier,
    pattern_fingerprint,
)
from repro.service.server import (
    DeltaNotification,
    QueryService,
    ServiceResult,
    ServiceStats,
    Subscription,
)

__all__ = [
    "CanonicalPattern",
    "canonicalize",
    "normalize_quantifier",
    "pattern_fingerprint",
    "CacheStats",
    "ResultCache",
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "Subscription",
    "DeltaNotification",
]
