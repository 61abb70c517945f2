"""The one request pipeline under both serving tiers.

Every request — on one graph or on a fleet of shards — takes the same path::

    canonicalize → L1 lookup → (L2 lookup + promote) → in-batch dedup by
    fingerprint → compute → store under the looked-up version → record

:class:`RequestPipeline` is the single implementation of that path, of the
dispatcher loop that feeds it from ``submit()`` (per-request failure
isolation, cancelled futures skipped), of ``explain`` and of the
drain-then-shutdown ``close``.  The contract it keeps is written once, here:
**every served answer equals re-evaluation at one version** — the epoch is
read once per batch, answers computed for its misses are filed under that
epoch even if the graph moves while they run, and evaluation serialises with
``apply_delta`` on one lock, so an answer is strictly pre- or strictly
post-batch, never a mix.

The two tiers are its two backends and supply only what genuinely differs:

======================== ================================ =====================================
hook                     ``QueryService``                 ``ShardedService``
======================== ================================ =====================================
``_epoch()``             ``graph``, ``graph.version``,    ``_FleetToken``, ``VersionVector``,
                         ``graph.version``                ``vector.key_text()``
``_compute(unique)``     one executor round over          radius refusal, one fan-out round
                         (pattern × fragment) tasks       per shard, owned-node merge
``_l2_lookup/_l2_store`` no-ops                           ``SharedResultCache``
``_drain()``             list-and-event hand-off          ``AdmissionQueue``
``_stop_intake()``       set closed, wake the dispatcher  close the admission queue
``_shutdown()``          close the coordinator            close shard services + owned L2
======================== ================================ =====================================

plus class-level string constants (span names, the miss-route
label, the flight-recorder owner field) and the shard count a computed
request fans out to.  ``submit`` stays per tier — the fleet's admission
control, priorities and in-flight dedup are features the single service does
not have — as do ``apply_delta``, subscriptions and the stats dataclasses.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.matching.qmatch import strategy_label
from repro.obs.explain import ExplainReport, build_report
from repro.obs.flight import FlightRecorder
from repro.obs.introspect import ServiceIntrospection
from repro.obs.trace import TraceContext, get_tracer, span
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.service.cache import ResultCache
from repro.service.patterns import CanonicalPattern, canonicalize
from repro.utils.counters import WorkCounter
from repro.utils.errors import ReproError, ServiceError
from repro.utils.timing import Timer

__all__ = ["RequestPipeline", "ServiceResult"]

# One unique cache miss handed to ``_compute``: fingerprint and a
# representative pattern.
Unique = Tuple[str, QuantifiedGraphPattern]
# What ``_compute`` returns, each keyed by fingerprint: the answer, the
# seconds of compute attributed to it, and its merged work counters.
Computed = Tuple[Dict[str, FrozenSet], Dict[str, float], Dict[str, WorkCounter]]


@dataclass(frozen=True)
class ServiceResult:
    """One served answer.

    ``answer`` is a frozenset — cached and freshly computed answers are the
    same immutable object family, so callers can compare them byte-for-byte
    with a cold :class:`~repro.parallel.coordinator.PQMatch` run.

    ``counter`` carries the merged :class:`~repro.utils.counters.WorkCounter`
    of the dispatch that computed the answer — ``None`` for cache hits (no
    matching work ran).  The scale-out router sums these across shards and
    the oracle tests assert the sum against the per-shard parts.
    """

    pattern: str
    fingerprint: str
    answer: FrozenSet
    cached: bool
    elapsed: float = 0.0
    counter: Optional[WorkCounter] = None

    def __len__(self) -> int:
        return len(self.answer)

    def __contains__(self, node: object) -> bool:
        return node in self.answer


class _Request(NamedTuple):
    """One queued ``submit()`` — the same shape on both tiers.

    ``context`` is the submitter's trace context (captured inside its
    ``*.submit`` span) so the dispatcher can parent the served work under the
    submitting thread's tree; ``enqueued_wall`` anchors the synthetic
    queue-wait span on the wall clock.
    """

    pattern: QuantifiedGraphPattern
    future: "Future[ServiceResult]"
    context: TraceContext
    enqueued_wall: float


class RequestPipeline:
    """Canonicalize → cache → dedup → compute → record, over a backend seam.

    Subclasses supply the hooks and constants tabulated in the module
    docstring, an ``_options_key`` (engine configuration part of cache keys),
    a ``graph`` to explain against, and their own ``submit``.  ``stats``
    needs ``served``, ``batches``, ``computed``, ``deduplicated`` and
    ``memo_hits``.
    """

    SPAN_BATCH: str
    SPAN_WAIT: str
    MISS_ROUTE: str
    FLIGHT_OWNER: str
    # Shards a computed request touches (0 inside one service).
    _shard_fanout = 0

    def __init__(
        self,
        name: str,
        stats: object,
        cache_capacity: int,
        introspection: ServiceIntrospection,
        flight_capacity: int,
    ) -> None:
        self.name = name
        self.stats = stats
        self.cache = ResultCache(cache_capacity)
        # The per-fingerprint ledger: traffic, latency histograms and the
        # per-epoch work observations explain() reads, plus the (opt-in via
        # slow_query_threshold) slow-query threshold.
        self.introspection = introspection
        # Always-on, bounded post-mortem ring buffers (capacity 0 disables);
        # its slow_query ring is the one store of slow-query records.
        self.flight = FlightRecorder(flight_capacity)
        # Prepared-statement style canonicalization memo: repeat submissions
        # of the *same pattern object* skip the ~50µs canonicalize.  Weak keys
        # so the memo never pins a caller's pattern; callers must treat a
        # submitted pattern as frozen (mutating it would stale the memo — the
        # same contract a prepared statement has).
        self._canonical_memo: "weakref.WeakKeyDictionary[QuantifiedGraphPattern, CanonicalPattern]" = (
            weakref.WeakKeyDictionary()
        )
        # fingerprint -> representative pattern object, kept so update batches
        # can reason per cached entry (radius, focus label) during migration
        # and explain() can resolve a fingerprint.  Bounded like the answer
        # cache; an evicted representative only costs a dropped carry-forward.
        self._patterns: "OrderedDict[str, QuantifiedGraphPattern]" = OrderedDict()
        # Serialises evaluation and delta application (engines, partition and
        # executor are not thread-safe): a served answer reflects the backend
        # strictly before or strictly after any batch.  submit() only ever
        # touches it via the dispatcher.
        self._evaluate_lock = threading.RLock()
        self._dispatcher: Optional[threading.Thread] = None
        self._dispatcher_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ backend seam

    def _epoch(self) -> Tuple[object, Hashable, Hashable]:
        """``(cache scope object, version token, ledger epoch key)``."""
        raise NotImplementedError

    def _compute(self, unique: List[Unique]) -> Computed:
        """Evaluate the unique cache misses of one batch in one round."""
        raise NotImplementedError

    def _l2_lookup(self, fingerprint: str, epoch_key: Hashable) -> Optional[FrozenSet]:
        return None

    def _l2_store(self, fingerprint: str, epoch_key: Hashable, answer: FrozenSet) -> None:
        pass

    def _drain(self) -> Optional[List[Tuple[_Request, float]]]:
        """Block for queued ``(request, queue wait)`` pairs; ``None`` once
        the intake is closed and empty (the dispatcher exits)."""
        raise NotImplementedError

    def _stop_intake(self) -> None:
        """Refuse new submissions and wake the dispatcher for its last drain."""
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Release what ``_compute`` runs on (called under the evaluate lock)."""
        raise NotImplementedError

    # ---------------------------------------------------------- direct serving

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(f"{self.name} is closed")

    def evaluate(self, pattern: QuantifiedGraphPattern) -> ServiceResult:
        """Serve one pattern (L1 → L2 → canonical dedupe → compute)."""
        return self.evaluate_many([pattern])[0]

    def evaluate_many(
        self, patterns: Sequence[QuantifiedGraphPattern]
    ) -> List[ServiceResult]:
        """Serve a batch of patterns, in input order.

        Duplicate (equivalent) patterns inside the batch are computed once;
        all cache misses go to the backend in a single round.  The call is
        all-or-nothing: an invalid pattern anywhere in the batch raises (the
        :meth:`submit` path isolates failures per request instead, so one
        caller's bad pattern never fails a coalesced stranger's).
        """
        with self._evaluate_lock:
            # The closed-check must share the evaluation lock that close()
            # takes around the backend shutdown: a caller that passed an
            # unlocked check could otherwise resume after close() finished
            # and lazily resurrect a fresh process pool nothing would ever
            # shut down.
            self._check_open()
            return self._evaluate_batch(list(patterns))

    def _serve_batch(
        self,
        patterns: List[QuantifiedGraphPattern],
        waits: Optional[List[float]] = None,
    ) -> List[ServiceResult]:
        """The closed-check-free batch path: the dispatcher drains queued
        submissions through this while :meth:`close` is joining it (close
        shuts the backend down only after the join returns)."""
        with self._evaluate_lock:
            return self._evaluate_batch(patterns, waits=waits)

    def _evaluate_batch(
        self,
        patterns: List[QuantifiedGraphPattern],
        waits: Optional[List[float]] = None,
    ) -> List[ServiceResult]:
        if not patterns:
            return []
        # The epoch is read ONCE per batch: answers computed for the misses
        # below are filed under this version even if the owning thread
        # mutates the graph while the compute runs — a concurrent mutation
        # must never let a pre-mutation answer masquerade as a fresh one.
        scope, version, epoch_key = self._epoch()
        cache, options_key, miss_route = self.cache, self._options_key, self.MISS_ROUTE
        # Per position: (fingerprint, answer, route, counter) once served.
        served: List[Optional[Tuple[str, FrozenSet, str, Optional[WorkCounter]]]] = (
            [None] * len(patterns)
        )
        # fingerprint -> (representative pattern, positions awaiting it).
        missing: Dict[str, Tuple[QuantifiedGraphPattern, List[int]]] = {}
        # Per-request service time, started BEFORE canonicalization: a hit
        # costs canonicalize (or its memo) + L1 lookup, an L2 hit adds the
        # shared-store read and the promote, a miss adds its fingerprint's
        # share of the compute round — this is what feeds the ledger's
        # per-fingerprint p50/p99 and epoch seconds, and the slow-query check.
        request_elapsed: List[float] = [0.0] * len(patterns)
        with span(self.SPAN_BATCH, size=len(patterns)), Timer() as timer:
            for position, pattern in enumerate(patterns):
                started = perf_counter()
                fingerprint = self._canonical(pattern).fingerprint
                answer = cache.lookup(scope, fingerprint, options_key, version=version)
                route = "l1"
                if answer is None:
                    answer = self._l2_lookup(fingerprint, epoch_key)
                    if answer is not None:
                        # Promote to L1 so the next hit skips the shared store.
                        answer = cache.store(
                            scope, fingerprint, answer, options_key, version=version
                        )
                        route = "l2"
                request_elapsed[position] = perf_counter() - started
                if answer is not None:
                    served[position] = (fingerprint, answer, route, None)
                else:
                    missing.setdefault(fingerprint, (pattern, []))[1].append(position)

            if missing:
                unique = [
                    (fingerprint, pattern) for fingerprint, (pattern, _) in missing.items()
                ]
                answers, timings, counters = self._compute(unique)
                for fingerprint, (_, positions) in missing.items():
                    answer = cache.store(
                        scope, fingerprint, answers[fingerprint], options_key, version=version
                    )
                    self._l2_store(fingerprint, epoch_key, answer)
                    counter = counters.get(fingerprint)
                    elapsed = timings.get(fingerprint, 0.0)
                    for position in positions:
                        request_elapsed[position] += elapsed
                        served[position] = (fingerprint, answer, miss_route, counter)
                self.stats.computed += len(missing)
                # Requests answered by sharing another's computation within
                # this batch (cache hits are counted by the cache itself).
                self.stats.deduplicated += sum(
                    len(positions) - 1 for _, positions in missing.values()
                )

        batch_size = len(patterns)
        self.stats.served += batch_size
        self.stats.batches += 1
        elapsed = timer.elapsed
        flight, introspection = self.flight, self.introspection
        slow_queries = introspection.slow_query_threshold is not None
        results: List[ServiceResult] = []
        for position, (fingerprint, answer, route, counter) in enumerate(served):
            cached = route != miss_route
            name = patterns[position].name
            request_seconds = request_elapsed[position]
            shard_fanout = 0 if cached else self._shard_fanout
            admission_wait = waits[position] if waits is not None else 0.0
            strategy = "" if cached else strategy_label(counter)
            introspection.observe(
                fingerprint, name, request_seconds, cached, counter, epoch_key, len(answer)
            )
            if slow_queries:
                self._file_slow_query(
                    fingerprint,
                    name,
                    request_seconds,
                    cached=cached,
                    counter=counter,
                    batch_size=batch_size,
                    strategy=strategy,
                    shard_fanout=shard_fanout,
                    cache_route=route,
                    admission_wait=admission_wait,
                )
            if flight and not cached:
                # Computed-work grain only: cache hits stay off the recorder
                # so the default hot path costs two falsy checks, not an event.
                flight.record(
                    "query",
                    **{self.FLIGHT_OWNER: self.name},
                    fingerprint=fingerprint,
                    pattern=name,
                    cached=cached,
                    cache_route=route,
                    strategy=strategy,
                    shard_fanout=shard_fanout,
                    elapsed=request_seconds,
                    batch_size=batch_size,
                    admission_wait=admission_wait,
                )
            results.append(
                ServiceResult(name, fingerprint, answer, cached, elapsed, counter)
            )
        return results

    def _file_slow_query(
        self, fingerprint: str, pattern_name: str, elapsed: float, **fields
    ) -> None:
        """File a request that crossed the ledger's threshold into the flight
        recorder's ``slow_query`` ring — the one call served requests and
        subscription maintenance share."""
        record = self.introspection.slow_query(fingerprint, pattern_name, elapsed, **fields)
        if record is not None:
            self.flight.record(
                "slow_query", **{self.FLIGHT_OWNER: self.name}, **record.as_dict()
            )

    # -------------------------------------------------------- canonicalization

    def _canonical(self, pattern: QuantifiedGraphPattern) -> CanonicalPattern:
        """Canonicalize with the per-pattern-object memo (prepared statements).

        Repeat submissions of the same object skip the colour-refinement
        canonicalization entirely; distinct-but-equivalent objects still meet
        at the fingerprint.  Also records the pattern as the representative
        of its fingerprint.  Runs on submitting threads as well as the
        dispatcher, without a lock: ``memo_hits`` may lose a count under
        contention, the registry stays sound.
        """
        form = self._canonical_memo.get(pattern)
        if form is not None:
            self.stats.memo_hits += 1
        else:
            form = canonicalize(pattern)
            try:
                self._canonical_memo[pattern] = form
            except TypeError:
                pass  # unhashable/unweakrefable pattern subclass: just skip the memo
        # Memo hits refresh the slot too, so the registry's LRU order tracks
        # real traffic: otherwise the hottest (always-memo-hit) patterns
        # would be the first evicted and lose delta-time carry-forward.
        # pop + insert rather than assign + move_to_end: neither statement
        # can raise if another thread evicts the key in between.
        registered = self._patterns
        registered.pop(form.fingerprint, None)
        registered[form.fingerprint] = pattern
        while len(registered) > self.cache.capacity:
            registered.popitem(last=False)
        return form

    # -------------------------------------------------------------- dispatcher

    def _ensure_dispatcher(self) -> None:
        dispatcher = self._dispatcher
        if dispatcher is None or not dispatcher.is_alive():
            with self._dispatcher_lock:
                if self._dispatcher is None or not self._dispatcher.is_alive():
                    self._dispatcher = threading.Thread(
                        target=self._dispatch_loop,
                        name=f"{self.name}-dispatcher",
                        daemon=True,
                    )
                    self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._drain()
            if batch is None:
                return
            # Claim each future; ones cancelled while queued are skipped (and
            # must not poison the rest of the batch — a dead dispatcher would
            # orphan every later future).
            claimed = [
                pair for pair in batch if pair[0].future.set_running_or_notify_cancel()
            ]
            if not claimed:
                continue
            # Queue wait per claimed request: always measured (it feeds the
            # slow-query records), and — when the submitter captured a live
            # trace — also filed as a synthetic span under its submit span,
            # so queueing time shows up in the tree it delayed.
            tracer = get_tracer()
            if tracer.enabled:
                for request, wait in claimed:
                    if request.context.enabled:
                        tracer.record_span(
                            self.SPAN_WAIT,
                            start=request.enqueued_wall,
                            wall=wait,
                            context=request.context,
                            pattern=request.pattern.name,
                        )
            try:
                # The coalesced batch runs once; its spans parent under the
                # first claimant's submit span (the others' trees keep their
                # submit root + wait span and share the served work).
                with tracer.attach(claimed[0][0].context):
                    served = self._serve_batch(
                        [request.pattern for request, _ in claimed],
                        waits=[wait for _, wait in claimed],
                    )
            except BaseException:
                # The coalesced batch mixes unrelated callers, so a failure
                # (typically one invalid pattern) must not fan out: fall back
                # to serving each request on its own and fail only the
                # request that is actually broken.  Valid requests stay cheap
                # — whatever the failed round cached is reused.
                for request, wait in claimed:
                    try:
                        with tracer.attach(request.context):
                            result = self._serve_batch([request.pattern], waits=[wait])[0]
                    except BaseException as error:
                        if not request.future.done():
                            request.future.set_exception(error)
                    else:
                        if not request.future.done():
                            request.future.set_result(result)
            else:
                for (request, _), result in zip(claimed, served):
                    if not request.future.done():
                        request.future.set_result(result)

    # -------------------------------------------------------------- telemetry

    def explain(self, query, analyze: bool = False) -> ExplainReport:
        """EXPLAIN (ANALYZE) one query: what the tier's engine does with it,
        and — with ``analyze=True`` — what it did.

        *query* is a pattern object or the canonical fingerprint of one this
        service has seen (the representative registry keeps one live pattern
        per served fingerprint).  The report names the canonical shape, the
        static strategy and reason, and the ledger's per-epoch traffic
        averages.  ``analyze=True`` evaluates the query once with the tier's
        QMatch configuration (read off the engine-options key) on
        ``self.graph`` — the fleet's union graph, which is exactly what its
        merged answer reproduces — and reports that run's exact work; it
        raises :class:`~repro.utils.errors.ServiceError` when the engine is
        not QMatch.  The shape is compiled once per call
        (:func:`repro.plan.compile_plan`) and kept nowhere.
        """
        from repro.matching.qmatch import QMatch
        from repro.plan.compile import compile_plan

        with self._evaluate_lock:
            self._check_open()
            if isinstance(query, str):
                pattern = self._patterns.get(query)
                if pattern is None:
                    raise ReproError(
                        f"{self.name} has no pattern registered for "
                        f"fingerprint {query!r}"
                    )
            else:
                pattern = query
            form = self._canonical(pattern)
            plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
            engine = None
            if self._options_key[0] == "qmatch":
                _, use_incremental, options = self._options_key
                engine = QMatch(use_incremental, options)
            return build_report(
                plan,
                self.graph,
                pattern,
                traffic=self.introspection.observed(form.fingerprint),
                engine=engine,
                analyze=analyze,
            )

    def _introspect_requests(self) -> Dict[str, object]:
        """The request-level part of ``introspect()`` both tiers share."""
        return {
            "fingerprints": self.introspection.snapshot(),
            "slow_queries": [
                event.as_dict() for event in self.flight.events("slow_query")
            ],
            "flight": self.flight.snapshot(),
        }

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the dispatcher (draining queued work), then shut the backend.

        The intake closes first (new submits raise), the dispatcher drains
        what was already accepted, and only then does the backend go down.
        The join is unbounded on purpose: close() promises queued submissions
        are drained, and shutting the backend down under a timed-out join
        would race the still-running dispatcher.  The shutdown takes the
        evaluation lock, so an in-flight ``evaluate_many`` that passed its
        closed-check first finishes before the pool goes down — and can never
        resurrect it afterwards.  Idempotent.
        """
        self._stop_intake()
        with self._dispatcher_lock:
            dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            dispatcher.join()
        with self._evaluate_lock:
            self._closed = True
            self._shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
