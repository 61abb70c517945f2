"""The single-graph backend of the request pipeline.

:class:`QueryService` is the request-level layer in front of
:class:`~repro.parallel.coordinator.PQMatch`.  Where the coordinator answers
one pattern per call — walking candidate filtering, DMatch and the negated
edges from scratch every time — the service recognises *traffic*.  The
request path itself (canonicalize → cache → in-batch dedup → compute →
record, the dispatcher loop, ``explain``, ``close``) is
:class:`repro.service.pipeline.RequestPipeline`, shared with the scale-out
router; this module supplies the single-graph side of its seam:

1. the **epoch** is the graph's mutation counter — the version-aware LRU
   cache (:mod:`repro.service.cache`) keys on it, so structural mutations
   invalidate by unreachability and attribute updates keep the cache warm;
2. **compute** ships the deduplicated misses of a batch as a single executor
   round: one :class:`~repro.parallel.worker.FragmentTask` per (unique
   pattern × fragment), all submitted to the coordinator's persistent
   executor at once instead of one dispatch round per query.  By default
   there is one fragment — the served graph itself, evaluated in process
   (``PQMatch(num_workers=1)``, the identity partition); hand the service a
   ``PQMatch(num_workers=n, executor="process")`` to partition with DPar and
   run fragments concurrently.  On the process backend the fragments
   themselves were already shipped at pool creation, so a serving round
   moves only patterns and answers;
3. there is no L2, and the **queue** under :meth:`QueryService.submit` is an
   unbounded list-and-event hand-off (measured cheaper per hit than the
   fleet's :class:`~repro.serve.admission.AdmissionQueue`).

It also owns what only one graph has: :meth:`QueryService.apply_delta` with
selective cache carry-forward, and standing queries.

The pool, partition and executor are owned by the wrapped coordinator and
reused for the service's lifetime (close the service — or use it as a context
manager — to release pool processes).

Concurrency model: :meth:`QueryService.evaluate` and
:meth:`~QueryService.evaluate_many` serialise on an internal lock (the
matching engines are not thread-safe), while :meth:`QueryService.submit` is
the thread-safe entry point — it enqueues the query and returns a
:class:`concurrent.futures.Future`; a single dispatcher thread drains the
queue and evaluates whatever accumulated as **one batch**, so concurrent
callers amortise dispatch and share cache fills for duplicate queries.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from time import perf_counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.graph.digraph import PropertyGraph
from repro.matching.qmatch import QMatch
from repro.obs.introspect import ServiceIntrospection
from repro.obs.trace import get_tracer, span
from repro.parallel.coordinator import PQMatch
from repro.parallel.worker import FragmentTask, engine_to_spec, options_key_from_spec
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.service.pipeline import Computed, RequestPipeline, ServiceResult, Unique, _Request
from repro.utils.counters import WorkCounter
from repro.utils.errors import ReproError

__all__ = [
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "Subscription",
    "DeltaNotification",
]


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`QueryService`.

    ``deduplicated`` counts queries answered by sharing another query's
    computation *within the same batch* (cache hits are counted by the cache
    itself); ``dispatch_rounds`` counts executor rounds — the quantity batching
    minimises; ``computed`` counts unique patterns that actually reached the
    matching layer.  ``memo_hits`` counts canonicalizations skipped by the
    per-pattern-object memo; the ``delta_*`` family describes update batches:
    batches applied, cache entries carried across a version vs dropped, and
    standing-query answers delta-maintained.

    The object doubles as the service's introspection entry point: *reading*
    attributes (``service.stats.computed``) gives the lifetime counters, while
    *calling* it (``service.stats()``) returns the full introspection snapshot
    — per-fingerprint p50/p99 latencies, cache occupancy and hit rate, pool
    epoch, standing-query counts and the slow-query records — via the owning
    service's :meth:`QueryService.introspect`.
    """

    served: int = 0
    batches: int = 0
    dispatch_rounds: int = 0
    computed: int = 0
    deduplicated: int = 0
    submitted: int = 0
    memo_hits: int = 0
    deltas_applied: int = 0
    delta_cache_carried: int = 0
    delta_cache_dropped: int = 0
    delta_subscription_updates: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "served": self.served,
            "batches": self.batches,
            "dispatch_rounds": self.dispatch_rounds,
            "computed": self.computed,
            "deduplicated": self.deduplicated,
            "submitted": self.submitted,
            "memo_hits": self.memo_hits,
            "deltas_applied": self.deltas_applied,
            "delta_cache_carried": self.delta_cache_carried,
            "delta_cache_dropped": self.delta_cache_dropped,
            "delta_subscription_updates": self.delta_subscription_updates,
        }

    def __call__(self) -> Dict[str, object]:
        provider = getattr(self, "_snapshot_provider", None)
        if provider is None:
            return dict(self.as_dict())
        return provider()


@dataclass(frozen=True)
class DeltaNotification:
    """One standing-query answer change, as delivered to subscribers.

    ``version`` is the graph version the new answer holds for; ``added`` and
    ``removed`` are the answer diff against the previous version.
    """

    version: int
    added: FrozenSet
    removed: FrozenSet
    aff_size: int = 0

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


class Subscription:
    """A standing query: its answer is *maintained* across graph deltas.

    Created by :meth:`QueryService.subscribe`.  ``answer`` always reflects the
    service graph's current version; every structural batch the service
    applies re-verifies only the affected area (:func:`repro.delta.inc_qmatch_delta`)
    and, when the answer changed, appends a :class:`DeltaNotification` to
    ``notifications`` and invokes the optional callback.  Cancel with
    :meth:`cancel` (idempotent) to stop maintenance.
    """

    def __init__(
        self,
        service: "QueryService",
        pattern: QuantifiedGraphPattern,
        fingerprint: str,
        answer: FrozenSet,
        version: int,
        callback: Optional[Callable[["Subscription", DeltaNotification], None]] = None,
    ) -> None:
        self.pattern = pattern
        self.fingerprint = fingerprint
        self.answer = answer
        self.version = version
        self.callback = callback
        self.notifications: List[DeltaNotification] = []
        self.active = True
        self._service = service

    def cancel(self) -> None:
        """Stop maintaining this subscription (safe to call twice)."""
        if self.active:
            self.active = False
            self._service._drop_subscription(self)

    def __repr__(self) -> str:
        return (
            f"Subscription(pattern={self.pattern.name!r}, |answer|={len(self.answer)}, "
            f"version={self.version}, active={self.active})"
        )


def _engine_options_key(engine: object) -> Hashable:
    """A hashable identity for the engine configuration part of cache keys.

    Answers are engine-independent by the equivalence theorems the test suite
    pins down, but the cache still refuses to *assume* that: results computed
    under one engine configuration are never served for another.  The standard
    :class:`~repro.matching.qmatch.QMatch` maps to its full option tuple
    (``DMatchOptions`` is a frozen, hashable dataclass); anything else maps to
    its type identity.
    """
    return options_key_from_spec(engine_to_spec(engine))


class QueryService(RequestPipeline):
    """Serve quantified-pattern queries against one graph, with reuse.

    Parameters
    ----------
    graph:
        The live :class:`~repro.graph.PropertyGraph` being served.  The
        service reads its mutation counter on every batch, so structural
        updates between batches are picked up automatically (stale cache
        entries become unreachable; a partitioning coordinator re-partitions
        and — on the process backend — re-ships fragments).
    coordinator:
        The :class:`~repro.parallel.coordinator.PQMatch` that evaluates cache
        misses.  Defaults to ``PQMatch(num_workers=1, d=2)``: one fragment
        that *is* the served graph, evaluated in process — a miss costs what
        :class:`QMatch` costs, with no partition to build, replicate or
        maintain.  Pass ``PQMatch(num_workers=n, executor="process")`` to
        partition with DPar and run the fragments concurrently.  The service
        owns it: :meth:`close` closes it.
    cache_capacity:
        Bound on the number of cached answers (LRU beyond it).
    name:
        Names the service in spans, flight-recorder events and errors.
    slow_query_threshold:
        Seconds of per-request service time from which a request is filed
        into the flight recorder's ``slow_query`` ring, which
        ``introspect()`` reads as ``"slow_queries"``; ``None`` (the default)
        files none, ``0.0`` files every request.
    flight_capacity:
        Events kept per kind by the service's
        :class:`~repro.obs.flight.FlightRecorder`; ``0`` disables it, and
        with it the slow-query records.

    The per-fingerprint ledger behind :meth:`introspect` and :meth:`explain`
    keeps ``DEFAULT_LEDGER_CAPACITY`` fingerprints, each with its latest
    ``DEFAULT_EPOCH_CAPACITY`` graph epochs (:mod:`repro.obs.introspect`).

    >>> from repro.graph.generators import small_world_social_graph
    >>> from repro.datasets.workloads import workload_patterns
    >>> graph = small_world_social_graph(60, 150, seed=3)
    >>> queries = workload_patterns(graph, count=2, seed=5)
    >>> with QueryService(graph) as service:
    ...     first = service.evaluate_many(queries + queries)
    ...     again = service.evaluate(queries[0])
    >>> [r.cached for r in first], again.cached
    ([False, False, False, False], True)
    """

    def __init__(
        self,
        graph: PropertyGraph,
        coordinator: Optional[PQMatch] = None,
        cache_capacity: int = 1024,
        name: str = "QueryService",
        slow_query_threshold: Optional[float] = None,
        flight_capacity: int = 256,
    ) -> None:
        # Calling service.stats() (vs reading its counter attributes) yields
        # the full introspection snapshot.
        stats = ServiceStats()
        stats._snapshot_provider = self.introspect
        super().__init__(
            name,
            stats,
            cache_capacity=cache_capacity,
            introspection=ServiceIntrospection(slow_query_threshold=slow_query_threshold),
            flight_capacity=flight_capacity,
        )
        self.graph = graph
        self.coordinator = coordinator if coordinator is not None else PQMatch(
            num_workers=1, d=2, engine=QMatch()
        )
        self._options_key = _engine_options_key(self.coordinator.engine)
        self._subscriptions: List[Subscription] = []
        # submit() machinery: (request, enqueue perf timestamp) pairs drained
        # in batches by a single lazily started dispatcher thread.
        self._pending: List[Tuple[_Request, float]] = []
        self._pending_lock = threading.Lock()
        self._pending_signal = threading.Event()

    # -------------------------------------------------------------- one query

    def evaluate_answer(self, pattern: QuantifiedGraphPattern, graph=None) -> FrozenSet:
        """Engine-interface parity helper returning only the answer set.

        ``graph`` must be the served graph when given — a service is bound to
        one graph; passing another is almost certainly a bug, so it raises.
        """
        if graph is not None and graph is not self.graph:
            raise ReproError(
                f"{self.name} serves graph {self.graph.name!r}; "
                f"got a query for {graph.name!r}"
            )
        return self.evaluate(pattern).answer

    # ------------------------------------------------------------ backend seam

    SPAN_BATCH = "service.batch"
    SPAN_WAIT = "service.pending.wait"
    MISS_ROUTE = "compute"
    FLIGHT_OWNER = "service"

    def _epoch(self) -> Tuple[PropertyGraph, int, int]:
        version = self.graph.version
        return self.graph, version, version

    def _compute(self, unique: List[Unique]) -> Computed:
        """Evaluate the unique cache misses in one executor round.

        Composes :meth:`PQMatch.fragment_tasks` / ``run_fragment_tasks`` —
        the same construction and execution :meth:`PQMatch.evaluate` uses, so
        answers are byte-identical by sharing code, not by mirroring it — but
        concatenates *every* pattern's tasks into a single round, so the
        per-round fixed costs (pool round-trip, task scheduling) are paid once
        per batch instead of once per query.

        Returns ``(answers, timings, counters)``: per fingerprint, the frozen
        answer, the summed per-fragment evaluation seconds (its share of the
        round — the introspection layer's compute-latency sample) and the
        merged work counters.
        """
        graph, coordinator = self.graph, self.coordinator
        radius = 0
        for _, pattern in unique:
            pattern.validate()
            radius = max(radius, pattern.radius())
        partition = coordinator.ensure_radius(graph, radius)

        tasks: List[FragmentTask] = []
        owners: List[str] = []
        for fingerprint, pattern in unique:
            pattern_tasks = coordinator.fragment_tasks(pattern, partition)
            tasks.extend(pattern_tasks)
            owners.extend([fingerprint] * len(pattern_tasks))

        self.stats.dispatch_rounds += 1
        with span("service.dispatch", patterns=len(unique), tasks=len(tasks)):
            fragment_results = coordinator.run_fragment_tasks(tasks)

        answers: Dict[str, set] = {fingerprint: set() for fingerprint, _ in unique}
        timings: Dict[str, float] = {fingerprint: 0.0 for fingerprint, _ in unique}
        counters: Dict[str, WorkCounter] = {
            fingerprint: WorkCounter() for fingerprint, _ in unique
        }
        for fingerprint, fragment_result in zip(owners, fragment_results):
            answers[fingerprint] |= fragment_result.answer
            timings[fingerprint] += fragment_result.elapsed
            counters[fingerprint].merge(fragment_result.counter)
        return (
            {fingerprint: frozenset(nodes) for fingerprint, nodes in answers.items()},
            timings,
            counters,
        )

    # ----------------------------------------------------------------- updates

    def apply_delta(self, delta) -> "GraphDelta":
        """Apply one :class:`~repro.delta.GraphDelta` batch to the served graph.

        This is the single write entry point of the service, and it threads
        the batch through every layer instead of cold-starting any of them:

        1. the graph mutates once (one version bump) via
           :func:`repro.delta.apply_delta`;
        2. the compiled full-graph index is **refreshed**, not rebuilt;
        3. a partitioning coordinator maintains its partition in place and
           the process executor re-keys shipped fragments to delta chains
           (:meth:`PQMatch.apply_delta`) — no re-partition, no re-ship,
           zero worker rebuilds; the default one-fragment coordinator has
           nothing to maintain (its fragment is the graph of step 1);
        4. cached answers migrate *selectively*: an entry whose pattern's
           affected area contains **no node carrying its focus label** cannot
           have changed (any focus candidate whose answer flipped is inside
           AFF) and is carried to the new version for free; entries the area
           might touch are dropped and recomputed on next request.  Note the
           focus-label guard is what makes the carry sound — an empty
           ``AFF ∩ answer`` alone would miss *newly created* matches;
        5. standing queries (:meth:`subscribe`) are delta-maintained via
           :func:`repro.delta.inc_qmatch_delta` and notified of their diff.

        Serialises with :meth:`evaluate_many`/:meth:`submit` on the evaluation
        lock, so every served answer reflects the graph strictly before or
        strictly after the batch — never a mix.  Returns the inverse batch;
        applying it rolls everything back (it is just another delta).
        """
        from repro.delta.matching import affected_area
        from repro.delta.ops import apply_delta as apply_graph_delta
        from repro.index.snapshot import GraphIndex

        with self._evaluate_lock, span(
            "service.delta", service=self.name, size=delta.size
        ) as delta_span:
            self._check_open()
            graph = self.graph
            old_version = graph.version
            inverse = apply_graph_delta(graph, delta)
            if not delta.is_structural():
                delta_span.annotate(structural=False)
                return inverse
            new_version = graph.version

            cached = graph.cached_index()
            if cached is not None and cached.version == old_version:
                index = cached.refreshed(delta)
                index_route = "refreshed"
            else:
                index = GraphIndex.for_graph(graph)
                index_route = "rebuilt"
            self.coordinator.apply_delta(graph, delta, inverse)

            # ---------------------------------------------- cache migration
            areas: Dict[int, set] = {}
            labels_in_area: Dict[int, set] = {}
            carried: List[Tuple[str, Hashable]] = []
            deleted = set(delta.node_deletes)
            dropped = 0
            for fingerprint, options_key in self.cache.fingerprints_for(graph, old_version):
                pattern = self._patterns.get(fingerprint)
                if pattern is None or options_key != self._options_key:
                    dropped += 1
                    continue
                radius = pattern.radius()
                if radius not in areas:
                    areas[radius] = affected_area(
                        graph, delta, radius, inverse=inverse, index=index
                    )
                    labels_in_area[radius] = {
                        graph.node_label(node) for node in areas[radius]
                    }
                focus_label = pattern.node_label(pattern.focus)
                if focus_label in labels_in_area[radius]:
                    dropped += 1
                    continue
                if deleted:
                    # Deleted nodes are *not* in AFF (they no longer exist),
                    # so the label guard above cannot see a cached match the
                    # batch itself deleted — same blind spot inc_qmatch_delta
                    # covers by subtracting node_deletes before carrying.
                    answer = self.cache.peek(
                        graph, fingerprint, options_key, version=old_version
                    )
                    if answer is None or not deleted.isdisjoint(answer):
                        dropped += 1
                        continue
                carried.append((fingerprint, options_key))
            if carried:
                self.cache.carry_forward(graph, carried, old_version, new_version)
            self.stats.delta_cache_carried += len(carried)
            self.stats.delta_cache_dropped += dropped

            # ------------------------------------------------- subscriptions
            self._maintain_subscriptions(delta, inverse, index, new_version)
            self.stats.deltas_applied += 1
            delta_span.annotate(
                index=index_route, carried=len(carried), dropped=dropped
            )
            if self.flight:
                self.flight.record(
                    "delta",
                    service=self.name,
                    graph=graph.name,
                    version=new_version,
                    size=delta.size,
                    index=index_route,
                    carried=len(carried),
                    dropped=dropped,
                )
            return inverse

    def subscribe(
        self,
        pattern: QuantifiedGraphPattern,
        callback: Optional[Callable[[Subscription, DeltaNotification], None]] = None,
    ) -> Subscription:
        """Register *pattern* as a standing query.

        The initial answer is served through the normal path (cache, batch
        dispatch); from then on every :meth:`apply_delta` batch maintains the
        answer incrementally — re-verifying only the affected area — instead
        of recomputing it, keeps the result cache warm at the new version,
        and notifies the subscription (list + optional callback) of the diff.
        """
        with self._evaluate_lock:
            self._check_open()
            result = self._evaluate_batch([pattern])[0]
            subscription = Subscription(
                service=self,
                pattern=pattern,
                fingerprint=result.fingerprint,
                answer=result.answer,
                version=self.graph.version,
                callback=callback,
            )
            self._subscriptions.append(subscription)
            return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def _maintenance_engine(self) -> Tuple[QMatch, bool]:
        """The sequential engine used to maintain standing queries.

        Returns ``(engine, cacheable)``: *cacheable* marks that the engine is
        equivalent to the coordinator's (the standard QMatch rebuilt from its
        options), so maintained answers may be filed into the result cache
        under the service's options key.  Opaque engines maintain answers with
        a default QMatch — answers are engine-independent — but never touch
        the cache, honouring its never-cross-options discipline.
        """
        spec = engine_to_spec(self.coordinator.engine)
        if spec[0] == "qmatch":
            _, use_incremental, options, name = spec
            return QMatch(use_incremental=use_incremental, options=options, name=name), True
        return QMatch(), False

    def _maintain_subscriptions(self, delta, inverse, index, new_version: int) -> None:
        if not self._subscriptions:
            return
        from repro.delta.matching import inc_qmatch_delta

        engine, cacheable = self._maintenance_engine()
        for subscription in list(self._subscriptions):
            if not subscription.active:
                continue
            maintain_started = perf_counter()
            answer, stats = inc_qmatch_delta(
                subscription.pattern,
                self.graph,
                delta,
                subscription.answer,
                inverse=inverse,
                engine=engine,
                index=index,
            )
            self._file_slow_query(
                subscription.fingerprint,
                subscription.pattern.name,
                perf_counter() - maintain_started,
                counter=WorkCounter(verifications=stats.verifications),
                aff_size=stats.aff_size,
            )
            if cacheable:
                answer = self.cache.store(
                    self.graph,
                    subscription.fingerprint,
                    answer,
                    self._options_key,
                    version=new_version,
                )
            subscription.answer = answer
            subscription.version = new_version
            self.stats.delta_subscription_updates += 1
            if stats.added or stats.removed:
                notification = DeltaNotification(
                    version=new_version,
                    added=frozenset(stats.added),
                    removed=frozenset(stats.removed),
                    aff_size=stats.aff_size,
                )
                subscription.notifications.append(notification)
                if subscription.callback is not None:
                    subscription.callback(subscription, notification)

    # ------------------------------------------------------------- submission

    def submit(self, pattern: QuantifiedGraphPattern) -> "Future[ServiceResult]":
        """Thread-safe asynchronous entry point.

        Enqueues the query and returns a future; a single dispatcher thread
        drains the queue, so queries submitted concurrently coalesce into one
        batch (deduplicated and dispatched together).  Call from any thread.
        Cancelling the returned future before the dispatcher picks it up is
        honoured (the query is skipped).
        """
        future: "Future[ServiceResult]" = Future()
        # The submit span is the root the dispatcher's batch spans parent
        # under (via attach), so one submitted query reads as one tree even
        # though serving happens on another thread.  Context + timestamps are
        # captured inside the span; the enqueue timestamps are always taken —
        # they feed the always-on admission-wait field of the slow-query records.
        with span("service.submit", service=self.name, pattern=pattern.name):
            request = _Request(pattern, future, get_tracer().current_context(), time.time())
            enqueued = perf_counter()
            with self._pending_lock:
                # Closed-check and enqueue share the lock close() takes, so a
                # submit racing close() either lands before it (and is
                # drained) or observes _closed — it can never restart the
                # dispatcher and resurrect the coordinator's executor after
                # shutdown.
                self._check_open()
                self._pending.append((request, enqueued))
                self._ensure_dispatcher()
                self._pending_signal.set()
                self.stats.submitted += 1
        return future

    def _drain(self) -> Optional[List[Tuple[_Request, float]]]:
        # A plain blocking wait: submit() always sets the signal under the
        # pending lock after appending and close() sets it too, so there is
        # no lost-wakeup window and no idle polling.
        self._pending_signal.wait()
        with self._pending_lock:
            batch, self._pending = self._pending, []
            if not self._closed:
                self._pending_signal.clear()
            elif not batch:
                return None
            # else: closed with work left — the signal stays set, so the next
            # wait() returns immediately and the empty drain ends the loop.
        claimed_at = perf_counter()
        return [(request, claimed_at - enqueued) for request, enqueued in batch]

    def _stop_intake(self) -> None:
        with self._pending_lock:
            self._closed = True
            self._pending_signal.set()

    def _shutdown(self) -> None:
        self.coordinator.close()

    # -------------------------------------------------------------- telemetry

    @property
    def worker_rebuilds(self) -> int:
        """``GraphIndex.build`` calls reported by pool workers (0 otherwise).

        The process executor aggregates worker-side build counts; serving must
        keep it at zero — fragments reach workers as decoded snapshots, never
        as recompilation work.  Serial/threaded backends trivially report 0.
        Reads the coordinator's executor *if one exists* — telemetry must not
        lazily create (or, after close, resurrect) a pool.
        """
        return getattr(self.coordinator.current_executor, "last_worker_rebuilds", 0)

    def stats_snapshot(self) -> Dict[str, float]:
        """Service + cache counters in one flat dict (bench/figure friendly)."""
        merged = {f"cache_{key}": value for key, value in self.cache.stats.as_dict().items()}
        merged.update(self.stats.as_dict())
        merged["worker_rebuilds"] = float(self.worker_rebuilds)
        return merged

    def introspect(self) -> Dict[str, object]:
        """The full operator-facing snapshot (also what ``stats()`` returns).

        One nested dict answering the runtime questions in one read: lifetime
        service counters, cache occupancy/capacity/hit-rate, the live pool's
        backend and payload epoch, the number of fragments a miss runs on (1
        on the default identity partition, 0 before the first miss), active
        standing-query count, the per-fingerprint ledger (traffic, p50/p99
        latency, per-epoch work observations), the slow-query records and the
        flight recorder.
        """
        executor = self.coordinator.current_executor
        epoch = getattr(executor, "pool_epoch", None)
        partition = self.coordinator.current_partition
        cache_stats = self.cache.stats.as_dict()
        cache_stats["entries"] = len(self.cache)
        cache_stats["capacity"] = self.cache.capacity
        return {
            "service": self.stats.as_dict(),
            "cache": cache_stats,
            "pool": {
                "backend": getattr(executor, "name", None),
                "fragments": partition.num_fragments if partition is not None else 0,
                "epoch_fragments": len(epoch) if epoch else 0,
                "worker_rebuilds": self.worker_rebuilds,
                "deltas_shipped": getattr(executor, "deltas_shipped", 0),
                "pool_recreations": getattr(executor, "pool_recreations", 0),
            },
            "graph": {"name": self.graph.name, "version": self.graph.version},
            "subscriptions": sum(1 for s in self._subscriptions if s.active),
            **self._introspect_requests(),
        }

    def __repr__(self) -> str:
        return (
            f"QueryService(graph={self.graph.name!r}, served={self.stats.served}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
