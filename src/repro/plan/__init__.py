"""Compiled query plans: per-fingerprint straight-line execution.

The service canonicalizes every pattern to a stable fingerprint; this package
compiles each fingerprint **once per process** into a :class:`CompiledPlan`
(lowered quantifier closures, pre-resolved per-label row stores, shared
``str``-order ranks, a stats-derived order preview) and caches it in a
bounded :class:`PlanCache` keyed ``(fingerprint, engine options, index stats
epoch)`` — beside the result cache in the service, per-process inside pool
workers.  The interpreted path stays the asserted-byte-identical fallback
(answers and work counters).
"""

from repro.plan.cache import (
    PlanCache,
    PlanCacheStats,
    reset_worker_plan_cache,
    worker_plan_cache,
)
from repro.plan.compile import (
    CompiledPlan,
    PlanResolution,
    compile_plan,
    lower_quantifier,
    plan_compile_count,
)

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanResolution",
    "compile_plan",
    "lower_quantifier",
    "plan_compile_count",
    "reset_worker_plan_cache",
    "worker_plan_cache",
]
