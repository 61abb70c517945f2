"""The shard router: the fleet backend of the request pipeline.

:class:`ShardedService` is layer 8's entry point.  It owns the **union
graph** and N :class:`~repro.service.server.QueryService` instances, one per
d-hop preserving shard (:mod:`repro.serve.shards`).  Its request path is the
same :class:`repro.service.pipeline.RequestPipeline` a single service runs —
a fleet differs only behind the seam: the **epoch** is the fleet's
:class:`~repro.serve.versions.VersionVector`, **compute** is a coalesced
fan-out + owned-node merge, the **L2** is the optional shared store, and the
**queue** under :meth:`ShardedService.submit` is a bounded
:class:`~repro.serve.admission.AdmissionQueue`.  It keeps three promises:

**Byte-identity.**  For any pattern of radius ≤ d, the merged answer —
the union over shards of (shard answer ∩ shard-owned nodes) — equals the
answer a single ``QueryService`` computes on the union graph, byte for byte.
Owned sets partition the node universe and each shard graph preserves every
owned node's radius-d neighbourhood, so restriction-then-union is exact (the
paper's fragment argument, one level up).  The hypothesis suite pins this
against the single-service oracle, answers and summed work counters both.

**Version-vector caching.**  The router's L1 :class:`ResultCache` and the
optional cross-process L2 (:mod:`repro.serve.shared_cache`) key on the
fleet's :class:`~repro.serve.versions.VersionVector` — never a collapse of
it.  A delta bumps only the shards it reaches, the vector moves, and every
pre-delta entry becomes unreachable; untouched shards keep their own warm
caches and carried-forward entries, so the recompute after a local delta is
mostly shard-local cache hits.

**Bounded admission.**  :meth:`submit` goes through an
:class:`~repro.serve.admission.AdmissionQueue` (reject-or-block backpressure,
priorities, graceful drain) and deduplicates in-flight work by
``(fingerprint, options key, version vector)`` — concurrent identical
queries share one future and one fan-out.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.delta.ops import GraphDelta, apply_delta as apply_graph_delta
from repro.graph.digraph import PropertyGraph
from repro.matching.qmatch import QMatch
from repro.obs.introspect import ServiceIntrospection
from repro.obs.trace import get_tracer, span
from repro.parallel.coordinator import PQMatch
from repro.parallel.worker import options_key_text
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.serve.admission import AdmissionConfig, AdmissionQueue
from repro.serve.shards import (
    GraphShard,
    affected_shards,
    build_shards,
    shard_subdelta,
    undirected_ball,
)
from repro.serve.shared_cache import SharedResultCache
from repro.serve.versions import VersionVector
from repro.service.pipeline import Computed, RequestPipeline, ServiceResult, Unique, _Request
from repro.service.server import QueryService
from repro.utils.counters import WorkCounter
from repro.utils.errors import ServiceError

__all__ = ["ShardedService", "RouterStats"]


class _FleetToken:
    """Stands in for "the graph" in the router's version-aware caches.

    :class:`ResultCache` keys on ``id(graph)`` and compares stored version
    slots against ``graph.version``; the router's "graph" is the whole fleet,
    whose version is the :class:`VersionVector` of its shard graphs.  This
    token gives the cache exactly the two things it reads — a stable identity
    and a ``.version`` — without pretending to be a graph anywhere else.
    """

    __slots__ = ("_fleet",)

    def __init__(self, fleet: "ShardedService") -> None:
        self._fleet = fleet

    @property
    def version(self) -> VersionVector:
        return self._fleet.version_vector

    def __repr__(self) -> str:
        return f"_FleetToken({self.version!r})"


@dataclass
class RouterStats:
    """Lifetime counters of one :class:`ShardedService`.

    ``deduplicated`` counts requests that shared another's computation — by
    riding an in-flight future at :meth:`ShardedService.submit`, or as an
    in-batch duplicate; ``shared_hits`` counts L2 reads promoted to L1;
    ``memo_hits`` counts canonicalizations skipped by the per-object memo
    (:meth:`ShardedService.submit` canonicalizes on the caller's thread for
    the in-flight key and the dispatcher again, so a submitted request
    always counts at least one).
    """

    served: int = 0
    batches: int = 0
    fanout_rounds: int = 0
    computed: int = 0
    deduplicated: int = 0
    submitted: int = 0
    shared_hits: int = 0
    memo_hits: int = 0
    deltas_applied: int = 0
    shards_touched: int = 0
    shards_skipped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "served": self.served,
            "batches": self.batches,
            "fanout_rounds": self.fanout_rounds,
            "computed": self.computed,
            "deduplicated": self.deduplicated,
            "submitted": self.submitted,
            "shared_hits": self.shared_hits,
            "memo_hits": self.memo_hits,
            "deltas_applied": self.deltas_applied,
            "shards_touched": self.shards_touched,
            "shards_skipped": self.shards_skipped,
        }


class ShardedService(RequestPipeline):
    """Route quantified-pattern queries across a fleet of graph shards.

    Parameters
    ----------
    graph:
        The union graph.  The router owns it for writes: mutate it only
        through :meth:`apply_delta`, which keeps every shard graph equal to
        its induced d-hop ball of the (updated) union.
    num_shards / d / partition:
        Forwarded to :func:`repro.serve.shards.build_shards`.  ``d`` bounds
        the radius of every servable pattern.
    coordinator_factory:
        ``shard -> PQMatch`` for custom per-shard backends.  By default the
        shard *is* the fragment: each shard service evaluates on its whole
        shard graph in process (``PQMatch(num_workers=1, d=d)``), with no
        d-hop partition nested inside the d-hop shard.  Return
        ``PQMatch(num_workers=n, executor="process")`` to partition a shard
        further and run its fragments concurrently.
    shared_cache:
        A :class:`SharedResultCache`, or a path (str) to open one — opened
        handles are owned (closed by :meth:`close`), passed handles are
        borrowed.  ``None`` disables the L2.
    cache_capacity:
        Bound on the router's L1 and on each shard service's result cache.
    admission:
        :class:`AdmissionConfig` for the :meth:`submit` front door.
    name:
        Names the fleet; shard services are ``f"{name}-shard{i}"``.
    slow_query_threshold / flight_capacity:
        As on :class:`~repro.service.server.QueryService`, for the fleet's
        own requests (records carry the serve-tier fields).  Shard services
        run with the defaults.

    >>> from repro.graph.generators import small_world_social_graph
    >>> from repro.datasets.workloads import workload_patterns
    >>> graph = small_world_social_graph(40, 90, seed=11)
    >>> queries = workload_patterns(graph, count=2, seed=7)
    >>> with ShardedService(graph, num_shards=3) as fleet:
    ...     first = fleet.evaluate(queries[0])
    ...     again = fleet.evaluate(queries[0])
    >>> first.answer == again.answer, first.cached, again.cached
    (True, False, True)
    """

    def __init__(
        self,
        graph: PropertyGraph,
        num_shards: int = 2,
        d: int = 2,
        partition: Optional[object] = None,
        coordinator_factory: Optional[Callable[[GraphShard], PQMatch]] = None,
        cache_capacity: int = 1024,
        admission: Optional[AdmissionConfig] = None,
        shared_cache: Optional[object] = None,
        name: str = "ShardedService",
        slow_query_threshold: Optional[float] = None,
        flight_capacity: int = 256,
    ) -> None:
        # Fleet-level request introspection: slow fleet queries carry the
        # serve-tier fields (fan-out count, cache route, admission wait).
        super().__init__(
            name,
            RouterStats(),
            cache_capacity=cache_capacity,
            introspection=ServiceIntrospection(slow_query_threshold=slow_query_threshold),
            flight_capacity=flight_capacity,
        )
        self.graph = graph
        self.d = d
        self.shards, self._assign = build_shards(graph, num_shards, d, partition)
        self.services: List[QueryService] = []
        for shard in self.shards:
            if coordinator_factory is not None:
                coordinator = coordinator_factory(shard)
            else:
                coordinator = PQMatch(num_workers=1, d=d, engine=QMatch())
            self.services.append(
                QueryService(
                    shard.graph,
                    coordinator=coordinator,
                    cache_capacity=cache_capacity,
                    name=f"{name}-shard{shard.shard_id}",
                )
            )
        options_keys = {service._options_key for service in self.services}
        if len(options_keys) != 1:
            raise ServiceError(
                "all shard services must share one engine configuration; "
                f"got {sorted(map(repr, options_keys))}"
            )
        self._options_key = next(iter(options_keys))
        self._options_text = options_key_text(self._options_key)

        self._token = _FleetToken(self)
        self._owns_shared = isinstance(shared_cache, str)
        self.shared: Optional[SharedResultCache] = (
            SharedResultCache(shared_cache) if self._owns_shared else shared_cache
        )
        if self.shared is not None:
            # Degraded L2 reads land in the flight recorder as they happen —
            # the listener keeps SharedResultCache free of any obs dependency.
            flight = self.flight
            self.shared.add_degraded_listener(
                lambda reason: flight.record(
                    "degraded", source="shared_cache", fleet=name, reason=reason
                )
            )

        self.admission = AdmissionQueue(admission or AdmissionConfig())
        # (fingerprint, options key, version vector) -> shared in-flight
        # future.  Guarded by its own lock so submit() never blocks behind a
        # running fan-out round.
        self._inflight: Dict[Hashable, "Future[ServiceResult]"] = {}
        self._inflight_lock = threading.Lock()
        # Per-shard WorkCounter of the most recent fan-out round, for the
        # per-slot contribution accounting in bench/introspection.
        self.last_round_counters: Dict[int, WorkCounter] = {}

    # ------------------------------------------------------------- properties

    @property
    def version_vector(self) -> VersionVector:
        """The fleet's current version: one component per shard graph."""
        return VersionVector.from_graphs(shard.graph for shard in self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    _shard_fanout = num_shards  # a computed request touches every shard

    # ------------------------------------------------------------ backend seam

    SPAN_BATCH = "serve.batch"
    SPAN_WAIT = "serve.admission.wait"
    MISS_ROUTE = "fanout"
    FLIGHT_OWNER = "fleet"

    def _epoch(self) -> Tuple[_FleetToken, VersionVector, str]:
        # Nothing can move the vector mid-batch (apply_delta takes the same
        # lock); the text form doubles as the L2 key and the explain epoch.
        vector = self.version_vector
        return self._token, vector, vector.key_text()

    def _l2_lookup(self, fingerprint: str, epoch_key: str) -> Optional[FrozenSet]:
        if self.shared is None:
            return None
        answer = self.shared.lookup(fingerprint, self._options_text, epoch_key)
        if answer is not None:
            self.stats.shared_hits += 1
        return answer

    def _l2_store(self, fingerprint: str, epoch_key: str, answer: FrozenSet) -> None:
        if self.shared is not None:
            self.shared.store(fingerprint, self._options_text, epoch_key, answer)

    def _compute(self, unique: List[Unique]) -> Computed:
        """One coalesced round: every missing pattern to every shard, merged.

        Each shard service receives the whole miss list as ONE batch (its own
        dispatch coalescing and result cache do the rest), so a router
        round costs one executor round per shard, not per pattern.  Per
        pattern, the merged answer is the union of each shard's answer
        restricted to its owned nodes, and the merged counter is the sum of
        the per-shard counters that actually computed (a shard serving its
        slice from its local cache contributes no fresh work).  Every pattern
        of the round is charged the whole round's wall time.
        """
        started = perf_counter()
        for _, pattern in unique:
            radius = pattern.radius()
            if radius > self.d:
                raise ServiceError(
                    f"pattern {pattern.name!r} has radius {radius} > shard halo "
                    f"d={self.d}; rebuild the fleet with a larger d"
                )
        patterns = [pattern for _, pattern in unique]
        self.stats.fanout_rounds += 1
        round_counters: Dict[int, WorkCounter] = {}
        with span("serve.fanout", patterns=len(unique), shards=self.num_shards):
            per_shard = [service.evaluate_many(patterns) for service in self.services]

        answers: Dict[str, FrozenSet] = {}
        counters: Dict[str, WorkCounter] = {}
        for index, (fingerprint, _pattern) in enumerate(unique):
            merged: Set[Hashable] = set()
            merged_counter = WorkCounter()
            for shard, shard_results in zip(self.shards, per_shard):
                shard_result = shard_results[index]
                merged |= shard_result.answer & shard.owned
                if shard_result.counter is not None:
                    merged_counter.merge(shard_result.counter)
                    round_counters.setdefault(shard.shard_id, WorkCounter()).merge(
                        shard_result.counter
                    )
            answers[fingerprint] = frozenset(merged)
            counters[fingerprint] = merged_counter
        self.last_round_counters = round_counters
        return answers, dict.fromkeys(answers, perf_counter() - started), counters

    # ------------------------------------------------------------- submission

    def submit(
        self, pattern: QuantifiedGraphPattern, priority: int = 0
    ) -> "Future[ServiceResult]":
        """Admit one query; returns a future (possibly a shared one).

        The request passes admission control (:class:`Overloaded` under the
        reject policy when the queue is full) and in-flight dedup: a query
        whose ``(fingerprint, options, version vector)`` is already queued or
        being fanned out rides the existing future — one computation, many
        waiters.  Note the flip side: cancelling a deduplicated future
        cancels it for every rider, exactly like coalesced cache fills.
        Smaller ``priority`` values drain first.
        """
        if self.admission.closed:
            raise ServiceError(f"{self.name} is closed")
        with span("serve.submit", fleet=self.name, pattern=pattern.name) as submit_span:
            form = self._canonical(pattern)
            key = (form.fingerprint, self._options_key, self.version_vector)
            future: "Future[ServiceResult]" = Future()
            with self._inflight_lock:
                existing = self._inflight.get(key)
                if existing is not None and not existing.done():
                    self.stats.deduplicated += 1
                    submit_span.annotate(deduplicated=True)
                    return existing
                self._inflight[key] = future
            # Captured inside the submit span: the dispatcher parents its
            # admission-wait and serve.batch spans under this submit.
            request = _Request(pattern, future, get_tracer().current_context(), time.time())
            try:
                self.admission.submit(request, priority)
            except BaseException:
                self._release_inflight(key, future)
                raise
            # However the future ends — served, failed, or cancelled while
            # queued — its in-flight slot is released with it.
            future.add_done_callback(partial(self._release_inflight, key))
            self._ensure_dispatcher()
            self.stats.submitted += 1
            return future

    def _release_inflight(self, key: Hashable, future: "Future[ServiceResult]") -> None:
        with self._inflight_lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def _drain(self) -> Optional[List[Tuple[_Request, float]]]:
        self.admission.wait_for_work()
        batch = self.admission.drain()
        if not batch and self.admission.closed:
            return None
        return [
            (request, wait)
            for (_priority, request), wait in zip(batch, self.admission.last_waits())
        ]

    def _stop_intake(self) -> None:
        self.admission.close()

    def _shutdown(self) -> None:
        for service in self.services:
            service.close()
        if self.shared is not None and self._owns_shared:
            self.shared.close()

    # ----------------------------------------------------------------- updates

    def apply_delta(self, delta: GraphDelta) -> GraphDelta:
        """Apply one batch to the union graph, routed to the shards it reaches.

        1. the union graph mutates once (one scalar bump there);
        2. ownership absorbs node inserts/deletes (hash or partition
           assignment — deterministic, so every process agrees);
        3. the conservatively-affected shards
           (:func:`repro.serve.shards.affected_shards`) each receive the
           exact sub-delta that moves their graph to the new induced ball,
           through their own :meth:`QueryService.apply_delta` — index
           refresh, partition maintenance and shard-local cache
           carry-forward all included.  **Unaffected shards do not bump**,
           which is what keeps their component of the version vector — and
           every cache entry keyed under it — warm;
        4. attribute-only writes propagate to every shard graph holding the
           node (no version bumps anywhere, matching semantics never read
           attributes).

        Serialises with the fan-out path, so every served answer is strictly
        pre- or strictly post-batch.  Returns the union-graph inverse.
        """
        with self._evaluate_lock, span(
            "serve.delta", fleet=self.name, size=delta.size
        ) as delta_span:
            self._check_open()
            inverse = apply_graph_delta(self.graph, delta)
            affected_ids: Set[int] = set()
            touched = 0
            if delta.is_structural():
                for node, _label, _attrs in delta.node_inserts:
                    self.shards[self._assign(node)].owned.add(node)
                for node in delta.node_deletes:
                    for shard in self.shards:
                        shard.owned.discard(node)
                affected = affected_shards(self.graph, self.shards, delta, self.d)
                affected_ids = {shard.shard_id for shard in affected}
                touched = len(affected)
                for shard in affected:
                    sub = shard_subdelta(self.graph, shard, self.d)
                    if not sub.is_empty():
                        # The shard's own service.delta span (refresh-vs-
                        # rebuild outcome included) nests under this one.
                        with span("serve.delta.shard", shard=shard.shard_id):
                            self.services[shard.shard_id].apply_delta(sub)
                self.stats.shards_touched += touched
                self.stats.shards_skipped += self.num_shards - touched
            if delta.attr_sets:
                for shard in self.shards:
                    if shard.shard_id in affected_ids:
                        continue  # graph_diff already carried the attr changes
                    subset = tuple(
                        (node, attr_key, value)
                        for node, attr_key, value in delta.attr_sets
                        if shard.graph.has_node(node)
                    )
                    if subset:
                        self.services[shard.shard_id].apply_delta(
                            GraphDelta(attr_sets=subset)
                        )
            self.stats.deltas_applied += 1
            skipped = self.num_shards - touched if delta.is_structural() else 0
            delta_span.annotate(touched=touched, skipped=skipped)
            self.flight.record(
                "delta",
                fleet=self.name,
                size=delta.size,
                structural=delta.is_structural(),
                shards_touched=touched,
                shards_skipped=skipped,
                version=self.version_vector.key_text(),
            )
            return inverse

    # ------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Assert the fleet's structural invariants (test/debug helper).

        Ownership partitions the union's nodes; every shard graph equals the
        union's induced subgraph on the d-hop ball of its owned set.  Raises
        :class:`ServiceError` on any violation.
        """
        union_nodes = set(self.graph.nodes())
        seen: Set[Hashable] = set()
        for shard in self.shards:
            overlap = seen & shard.owned
            if overlap:
                raise ServiceError(f"nodes owned twice: {sorted(map(repr, overlap))[:5]}")
            seen |= shard.owned
            ball = (
                undirected_ball(self.graph, shard.owned, self.d)
                if shard.owned
                else set()
            )
            expected = self.graph.induced_subgraph(ball, name=shard.graph.name)
            if shard.graph != expected:
                raise ServiceError(
                    f"shard {shard.shard_id} graph drifted from its induced ball"
                )
        if seen != union_nodes:
            raise ServiceError("ownership does not cover the union graph")

    # -------------------------------------------------------------- telemetry

    def stats_snapshot(self) -> Dict[str, float]:
        """Router + admission + cache counters, flat (bench/figure friendly)."""
        merged: Dict[str, float] = {
            f"cache_{key}": value for key, value in self.cache.stats.as_dict().items()
        }
        merged.update(
            {f"admission_{key}": value for key, value in self.admission.stats.as_dict().items()}
        )
        if self.shared is not None:
            # "shared_cache_" (not "shared_"): RouterStats already owns
            # "shared_hits" for L2-promote counts.
            merged.update(
                {
                    f"shared_cache_{key}": value
                    for key, value in self.shared.stats.as_dict().items()
                }
            )
        merged.update(self.stats.as_dict())
        merged["worker_rebuilds"] = float(
            sum(service.worker_rebuilds for service in self.services)
        )
        return merged

    def introspect(self) -> Dict[str, object]:
        """The operator-facing snapshot: fleet, shards, admission, caches."""
        with self._inflight_lock:
            inflight = len(self._inflight)
        return {
            "router": self.stats.as_dict(),
            "version_vector": list(self.version_vector),
            "admission": self.admission.stats.as_dict(),
            "inflight": inflight,
            "cache": self.cache.stats.as_dict(),
            "shared": self.shared.stats.as_dict() if self.shared is not None else None,
            "shared_degraded": (
                self.shared.degraded_reasons() if self.shared is not None else []
            ),
            **self._introspect_requests(),
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "owned": len(shard.owned),
                    "nodes": shard.graph.num_nodes,
                    "version": shard.graph.version,
                    "service": service.stats.as_dict(),
                    "last_round_counter": (
                        self.last_round_counters[shard.shard_id].as_dict()
                        if shard.shard_id in self.last_round_counters
                        else None
                    ),
                }
                for shard, service in zip(self.shards, self.services)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ShardedService(shards={self.num_shards}, d={self.d}, "
            f"served={self.stats.served}, vector={self.version_vector.key_text()})"
        )
