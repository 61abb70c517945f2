"""`repro.obs.introspect` — request-level visibility into a serving stack.

This module answers the operator questions about **one**
:class:`~repro.service.server.QueryService`: which fingerprints are hot, what
their p50/p99 latencies are, what work a fingerprint costs per graph epoch,
and which queries were slow enough to care about.  It is deliberately
**always on** — every instrument here observes at request granularity (a
handful of arithmetic operations per served query, never per probe), so the
sequential matching hot path is untouched.

:class:`ServiceIntrospection` is the service's one **per-fingerprint
ledger**.  Each :class:`FingerprintStats` record carries the request and
cache-hit counts and the latency histogram (p50/p99 by bucket interpolation)
of all traffic, and — for *computed* requests only, cache hits carry no fresh
observation — the per-epoch work observations (verifications, extensions,
quantifier checks, answers, seconds) that ``explain()`` reports as served
traffic.  The ledger is bounded two ways, LRU over fingerprints
and keep-latest over epochs per fingerprint: introspection must never become
the memory leak it is meant to find.

The ledger also owns the slow-query threshold: :meth:`ServiceIntrospection.
slow_query` builds a :class:`SlowQueryRecord` — fingerprint, pattern name,
elapsed seconds, the matching-layer work counters and the affected-area size
when the delta layer produced one — for a request that crossed it.  The
record is stored in one place, the owning service's flight recorder
(``slow_query`` ring).  A pathological matching order shows up there with
exactly the counters a cost model needs.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.utils.counters import WorkCounter

__all__ = ["FingerprintStats", "ServiceIntrospection", "SlowQueryRecord"]

# Fingerprints the ledger keeps (LRU beyond it), and graph epochs kept per
# fingerprint (the most recent ones: explain() reports current behaviour).
DEFAULT_LEDGER_CAPACITY = 512
DEFAULT_EPOCH_CAPACITY = 4

# Latency bucket upper bounds in seconds, 1 µs .. 30 s, roughly exponential;
# one implicit +inf bucket catches the tail.  A cache hit is served in a few
# microseconds, so the scale has to start well below 100 µs for a hit-only
# fingerprint's quantiles to mean anything.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _bucket_quantile(counts: List[int], total: int, q: float) -> float:
    """Estimated latency at quantile *q* (0..1), by linear interpolation
    inside the containing bucket; the +inf tail clamps to the last bound."""
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    lower = 0.0
    for upper, bucket_count in zip(LATENCY_BUCKETS, counts):
        if cumulative + bucket_count >= rank:
            if bucket_count == 0:
                return upper
            return lower + (upper - lower) * (rank - cumulative) / bucket_count
        cumulative += bucket_count
        lower = upper
    return LATENCY_BUCKETS[-1]


class _EpochStats:
    """Accumulated observations of one fingerprint in one graph epoch."""

    __slots__ = ("queries", "verifications", "extensions", "quantifier_checks",
                 "answers", "seconds")

    def __init__(self) -> None:
        self.queries = 0
        self.verifications = 0
        self.extensions = 0
        self.quantifier_checks = 0
        self.answers = 0
        self.seconds = 0.0

    def as_dict(self) -> Dict[str, float]:
        queries = self.queries or 1
        return {
            "queries": self.queries,
            "verifications_per_query": self.verifications / queries,
            "extensions_per_query": self.extensions / queries,
            "quantifier_checks_per_query": self.quantifier_checks / queries,
            "answers_per_query": self.answers / queries,
            "mean_seconds": self.seconds / queries,
        }


class FingerprintStats:
    """The ledger record of one canonical fingerprint.

    ``epochs`` stays ``None`` until the first computed request, so a
    fingerprint served only from cache never allocates epoch state.  Every
    request's latency lands in ``_buckets`` (one count per
    :data:`LATENCY_BUCKETS` bound plus the +inf tail), under the owning
    ledger's lock.
    """

    __slots__ = ("fingerprint", "pattern_name", "requests", "cache_hits",
                 "computed", "_buckets", "_seconds", "last_elapsed",
                 "verifications", "epochs")

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.pattern_name = ""
        self.requests = 0
        self.cache_hits = 0
        self.computed = 0
        self.verifications = 0
        self.last_elapsed = 0.0
        self._buckets = [0] * (len(LATENCY_BUCKETS) + 1)
        self._seconds = 0.0
        self.epochs: "Optional[OrderedDict[Hashable, _EpochStats]]" = None

    @property
    def p50(self) -> float:
        return _bucket_quantile(self._buckets, self.requests, 0.50)

    @property
    def p99(self) -> float:
        return _bucket_quantile(self._buckets, self.requests, 0.99)

    @property
    def mean(self) -> float:
        return self._seconds / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern_name,
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "verifications": self.verifications,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "mean_seconds": self.mean,
            "last_seconds": self.last_elapsed,
            "epochs": {
                str(epoch): stats.as_dict() for epoch, stats in (self.epochs or {}).items()
            },
        }


@dataclass(frozen=True)
class SlowQueryRecord:
    """One slow query — fingerprint, timing, and its work counters.

    ``strategy`` says what ran, read off the computed work counter by
    :func:`repro.matching.qmatch.strategy_label`: ``"fixpoint"``,
    ``"cutset"``, or ``"search (<reason>)"`` with the first declining
    pass's reason — the rule EXPLAIN uses.  It is empty for cache hits, subscription
    maintenance, and computations that recorded no strategy decision.

    The serve-tier fields make a slow *fleet* query diagnosable from the
    record alone: ``shard_fanout`` counts the shards the request actually
    touched (0 for a single service), ``cache_route`` names the level that
    answered (``"l1"``/``"l2"``/``"fanout"`` at the router,
    ``"l1"``/``"compute"`` inside one service, empty for subscription
    maintenance), and ``admission_wait`` is the seconds the request sat
    queued before a dispatcher claimed it.
    """

    fingerprint: str
    pattern_name: str
    elapsed: float
    threshold: float
    cached: bool
    verifications: int = 0
    extensions: int = 0
    quantifier_checks: int = 0
    aff_size: int = 0
    batch_size: int = 1
    strategy: str = ""
    shard_fanout: int = 0
    cache_route: str = ""
    admission_wait: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "pattern": self.pattern_name,
            "elapsed_seconds": self.elapsed,
            "threshold_seconds": self.threshold,
            "cached": self.cached,
            "verifications": self.verifications,
            "extensions": self.extensions,
            "quantifier_checks": self.quantifier_checks,
            "aff_size": self.aff_size,
            "batch_size": self.batch_size,
            "strategy": self.strategy,
            "shard_fanout": self.shard_fanout,
            "cache_route": self.cache_route,
            "admission_wait_seconds": self.admission_wait,
        }


class ServiceIntrospection:
    """The per-fingerprint ledger behind ``stats()``, ``explain()`` and the
    slow-query threshold.

    ``slow_query_threshold=None`` (the default) files no slow queries;
    ``0.0`` files every request, which is what regression tests use to
    capture pathological patterns deterministically.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_LEDGER_CAPACITY,
        slow_query_threshold: Optional[float] = None,
        epoch_capacity: int = DEFAULT_EPOCH_CAPACITY,
    ) -> None:
        if capacity <= 0 or epoch_capacity <= 0:
            raise ValueError("ledger capacities must be positive")
        self.capacity = capacity
        self.epoch_capacity = epoch_capacity
        self.slow_query_threshold = slow_query_threshold
        self._lock = threading.Lock()
        self._fingerprints: "OrderedDict[str, FingerprintStats]" = OrderedDict()

    # -------------------------------------------------------------- recording

    def observe(
        self,
        fingerprint: str,
        pattern_name: str,
        elapsed: float,
        cached: bool,
        counter: Optional[WorkCounter] = None,
        epoch: Hashable = None,
        answer_size: int = 0,
    ) -> None:
        """Account one served request (hit or computed) for *fingerprint*.

        A computed request also files its work counters, answer size and
        seconds under *epoch* — the graph epoch it ran against (a scalar
        version for one service, a version-vector text for a fleet).
        """
        with self._lock:
            stats = self._fingerprints.get(fingerprint)
            if stats is None:
                stats = FingerprintStats(fingerprint)
                self._fingerprints[fingerprint] = stats
                while len(self._fingerprints) > self.capacity:
                    self._fingerprints.popitem(last=False)
            else:
                self._fingerprints.move_to_end(fingerprint)
            stats.pattern_name = pattern_name
            stats.requests += 1
            stats.last_elapsed = elapsed
            stats._buckets[bisect_left(LATENCY_BUCKETS, elapsed)] += 1
            stats._seconds += elapsed
            if cached:
                stats.cache_hits += 1
            else:
                stats.computed += 1
                epochs = stats.epochs
                if epochs is None:
                    epochs = stats.epochs = OrderedDict()
                observation = epochs.get(epoch)
                if observation is None:
                    observation = epochs[epoch] = _EpochStats()
                    while len(epochs) > self.epoch_capacity:
                        epochs.popitem(last=False)
                else:
                    epochs.move_to_end(epoch)
                observation.queries += 1
                observation.answers += answer_size
                observation.seconds += elapsed
                if counter is not None:
                    stats.verifications += counter.verifications
                    observation.verifications += counter.verifications
                    observation.extensions += counter.extensions
                    observation.quantifier_checks += counter.quantifier_checks

    def slow_query(
        self,
        fingerprint: str,
        pattern_name: str,
        elapsed: float,
        cached: bool = False,
        counter: Optional[WorkCounter] = None,
        aff_size: int = 0,
        batch_size: int = 1,
        strategy: str = "",
        shard_fanout: int = 0,
        cache_route: str = "",
        admission_wait: float = 0.0,
    ) -> Optional[SlowQueryRecord]:
        """The record of a request that crossed the threshold, else ``None``."""
        threshold = self.slow_query_threshold
        if threshold is None or elapsed < threshold:
            return None
        return SlowQueryRecord(
            fingerprint=fingerprint,
            pattern_name=pattern_name,
            elapsed=elapsed,
            threshold=threshold,
            cached=cached,
            verifications=counter.verifications if counter else 0,
            extensions=counter.extensions if counter else 0,
            quantifier_checks=counter.quantifier_checks if counter else 0,
            aff_size=aff_size,
            batch_size=batch_size,
            strategy=strategy,
            shard_fanout=shard_fanout,
            cache_route=cache_route,
            admission_wait=admission_wait,
        )

    # -------------------------------------------------------------- snapshot

    def fingerprint(self, fingerprint: str) -> Optional[FingerprintStats]:
        with self._lock:
            return self._fingerprints.get(fingerprint)

    def observed(
        self, fingerprint: str, epoch: Optional[Hashable] = None
    ) -> Optional[Dict[str, object]]:
        """*fingerprint*'s per-query observation averages at *epoch* (the
        latest one by default); ``None`` when it was never computed there."""
        with self._lock:
            stats = self._fingerprints.get(fingerprint)
            if stats is None or not stats.epochs:
                return None
            if epoch is None:
                epoch = next(reversed(stats.epochs))
            observation = stats.epochs.get(epoch)
            if observation is None:
                return None
            payload = observation.as_dict()
            payload["epoch"] = epoch
            payload["pattern"] = stats.pattern_name
            return payload

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-fingerprint records, hottest (most recently served) last."""
        with self._lock:
            return {
                fingerprint: stats.as_dict()
                for fingerprint, stats in self._fingerprints.items()
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._fingerprints)
