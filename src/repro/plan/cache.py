"""The bounded plan cache: compile once per fingerprint, resolve per epoch.

Sits beside :class:`repro.service.cache.ResultCache` in the service (and as a
module-level per-process instance inside pool workers): a result-cache miss —
a fresh graph version, a cold entry — still hits a warm plan, so Zipf-hot
fingerprints pay interpretation setup exactly once per process.

The cache is two-level by design:

* **entries** are keyed ``(fingerprint, options_key, id(graph),
  graph.version)`` — the "index stats epoch" — and pin their graph exactly
  like the result cache (a live key can never see a recycled ``id``).  A
  graph mutation therefore *misses* (statistics changed, the plan's
  resolution must be redone) …
* … but **programs** are keyed ``(fingerprint, options_key)`` only, so the
  miss re-resolves against the new snapshot without recompiling: the lowered
  closures and canonical shape are graph-independent.  ``stats.compiles``
  counts program compilations, and the acceptance contract — each unique
  fingerprint compiles at most once per process — is asserted against it on
  both the coordinator and worker sides.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.graph.digraph import PropertyGraph
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.plan.compile import CompiledPlan, compile_plan

__all__ = ["PlanCache", "PlanCacheStats", "worker_plan_cache", "reset_worker_plan_cache"]

NodeId = Hashable

# (fingerprint, options_key, id(graph), graph.version)
#
# options_key carries the full engine options (a frozen dataclass), so any
# switch that changes execution strategy partitions cache entries
# automatically: two services with different options never share a plan
# entry, even where their answers are equal by contract.
PlanKey = Tuple[str, object, int, int]
ProgramKey = Tuple[str, object]

DEFAULT_PLAN_CACHE_CAPACITY = 256


@dataclass
class PlanCacheStats:
    """Always-on counters of one plan cache (``QueryService.stats()["plans"]``)."""

    hits: int = 0
    misses: int = 0
    compiles: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
        }


class _Entry:
    """One cached (plan, graph-epoch) pairing; holding the graph pins its id."""

    __slots__ = ("graph", "plan")

    def __init__(self, graph: PropertyGraph, plan: CompiledPlan) -> None:
        self.graph = graph
        self.plan = plan


class PlanCache:
    """Bounded LRU over compiled plans, epoch-keyed, program-preserving."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, _Entry]" = OrderedDict()
        self._programs: "OrderedDict[ProgramKey, CompiledPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def plan_for(
        self,
        graph: PropertyGraph,
        fingerprint: str,
        options_key: object,
        pattern: QuantifiedGraphPattern,
        form: Optional[object] = None,
    ) -> CompiledPlan:
        """The compiled plan for *fingerprint* under *options_key* on *graph*.

        A hit returns the cached program directly.  A miss first consults the
        program registry — an epoch change or an eviction re-registers the
        *existing* program under the new key without recompiling — and only
        compiles when the ``(fingerprint, options_key)`` pair has never been
        seen in this process.  *pattern* must be a pattern with the given
        fingerprint (any isomorphic spelling works: the compiled shape is
        canonical); *form* optionally passes the caller's memoised
        :class:`~repro.service.patterns.CanonicalPattern` through.
        """
        key: PlanKey = (fingerprint, options_key, id(graph), graph.version)
        program_key: ProgramKey = (fingerprint, options_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                plan = entry.plan
            else:
                self.stats.misses += 1
                plan = self._programs.get(program_key)
                if plan is None:
                    plan = compile_plan(
                        pattern,
                        fingerprint=fingerprint,
                        options_key=options_key,
                        form=form,
                    )
                    self.stats.compiles += 1
                else:
                    self._programs.move_to_end(program_key)
                self._programs[program_key] = plan
                while len(self._programs) > self.capacity:
                    self._programs.popitem(last=False)
                self._entries[key] = _Entry(graph, plan)
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        # Resolve eagerly so the first probe of the enumeration finds warm
        # row stores; a hit on the same epoch returns the memoised resolution.
        plan.resolution_for(graph)
        return plan

    def clear(self) -> None:
        """Forget entries *and* programs (fingerprints recompile after this)."""
        with self._lock:
            self._entries.clear()
            self._programs.clear()

    def describe(self) -> Dict[str, object]:
        """Introspection payload: stats plus per-fingerprint plan info."""
        with self._lock:
            programs = {
                fingerprint: plan.describe()
                for (fingerprint, _options), plan in self._programs.items()
            }
            entries = len(self._entries)
        payload: Dict[str, object] = {
            "capacity": self.capacity,
            "entries": entries,
            "programs": programs,
        }
        payload.update(self.stats.as_dict())
        return payload

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------- pool workers

# One cache per pool-worker process: fragment tasks ship only (fingerprint,
# plan binding), and the worker compiles-or-reuses here.  A plan compile is
# pure Python over the canonical pattern — never a snapshot rebuild — so the
# pool's ``last_worker_rebuilds == 0`` contract is untouched.
_WORKER_PLAN_CACHE: Optional[PlanCache] = None


def worker_plan_cache() -> PlanCache:
    """The per-process plan cache used inside pool workers (lazily built)."""
    global _WORKER_PLAN_CACHE
    if _WORKER_PLAN_CACHE is None:
        _WORKER_PLAN_CACHE = PlanCache()
    return _WORKER_PLAN_CACHE


def reset_worker_plan_cache() -> None:
    """Drop the worker-process cache (test isolation helper)."""
    global _WORKER_PLAN_CACHE
    _WORKER_PLAN_CACHE = None
