"""Admission control: the bounded, prioritised front door of the fleet.

A single :class:`~repro.service.server.QueryService` absorbs whatever its
callers submit — its pending list is unbounded, which is fine for one process
talking to itself and wrong for a serving tier fronting real traffic: under
overload an unbounded queue converts excess load into unbounded latency for
*everyone*.  :class:`AdmissionQueue` is the missing seam, placed exactly where
the dispatcher already batches:

* a **bound** on queued requests, with two overflow policies — ``"reject"``
  raises :class:`~repro.utils.errors.Overloaded` immediately (callers retry
  with backoff; the queue never lies about capacity), ``"block"`` parks the
  submitting thread until space frees (with an optional timeout, after which
  it too raises :class:`Overloaded`);
* **priorities**: smaller values drain first (0 is the default), FIFO within
  a priority class, so latency-sensitive traffic overtakes bulk traffic at
  the batch boundary without starving it — a drain takes *everything*
  admitted, ordered, not just the best class;
* **graceful drain**: :meth:`close` stops admissions instantly but leaves
  already-admitted requests for the dispatcher to finish — a promise made to
  every caller that got past the front door.

The queue is engine-agnostic (it holds opaque payloads); the router composes
it with in-flight dedup, which lives above the queue because dedup needs the
canonical fingerprint and the fleet's version vector — neither of which the
queue should know about.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.utils.errors import Overloaded, ReproError, ServiceError

__all__ = ["AdmissionConfig", "AdmissionStats", "AdmissionQueue"]

T = TypeVar("T")


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of one :class:`AdmissionQueue`.

    ``max_pending`` bounds admitted-but-undrained requests.  ``policy`` is
    ``"reject"`` (full queue ⇒ :class:`Overloaded` now) or ``"block"`` (full
    queue ⇒ wait for space; ``block_timeout`` seconds at most when set, then
    :class:`Overloaded`).  Validation is eager — a typo'd policy fails at
    construction, not first overload.
    """

    max_pending: int = 256
    policy: str = "reject"
    block_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ReproError("admission max_pending must be positive")
        if self.policy not in ("reject", "block"):
            raise ReproError(
                f"admission policy must be 'reject' or 'block', got {self.policy!r}"
            )
        if self.block_timeout is not None and self.block_timeout < 0:
            raise ReproError("admission block_timeout must be non-negative")


@dataclass
class AdmissionStats:
    """Lifetime counters of one queue (``ShardedService.introspect()["admission"]``).

    ``wait_seconds_total`` / ``wait_seconds_max`` accumulate the time
    payloads sat admitted-but-undrained (measured enqueue → drain), which is
    the queueing delay the serve tier adds before any matching work starts.
    """

    admitted: int = 0
    rejected: int = 0
    blocked: int = 0
    drained: int = 0
    high_water: int = 0
    wait_seconds_total: float = 0.0
    wait_seconds_max: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "blocked": self.blocked,
            "drained": self.drained,
            "high_water": self.high_water,
            "wait_seconds_total": self.wait_seconds_total,
            "wait_seconds_max": self.wait_seconds_max,
        }


class AdmissionQueue(Generic[T]):
    """A bounded priority queue with backpressure and graceful drain.

    Thread-safe.  Producers call :meth:`submit`; one consumer (the router's
    dispatcher) alternates :meth:`wait_for_work` / :meth:`drain` — drain
    empties the whole queue in priority order, which is what lets the
    dispatcher coalesce everything admitted since its last round into one
    batch.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        self.stats = AdmissionStats()
        # Heap entries carry their enqueue perf-counter timestamp so drain
        # can account the queueing wait; the public drain shape is unchanged.
        self._heap: List[Tuple[int, int, float, T]] = []
        self._seq = 0
        self._lock = threading.Lock()
        # Signals space freed (blocked producers) and work queued (consumer).
        self._space = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._last_waits: List[float] = []
        self._closed = False

    # ------------------------------------------------------------- producers

    def submit(self, payload: T, priority: int = 0) -> None:
        """Admit *payload*, or raise :class:`Overloaded` per the policy.

        Raises :class:`ServiceError` once the queue is closed — closing is a
        hard stop for *new* work only.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("admission queue is closed")
            if len(self._heap) >= self.config.max_pending:
                if self.config.policy == "reject":
                    self.stats.rejected += 1
                    raise Overloaded(
                        f"admission queue full ({self.config.max_pending} pending)"
                    )
                self.stats.blocked += 1
                if not self._space.wait_for(
                    lambda: self._closed or len(self._heap) < self.config.max_pending,
                    timeout=self.config.block_timeout,
                ):
                    self.stats.rejected += 1
                    raise Overloaded(
                        f"admission queue full after {self.config.block_timeout}s wait"
                    )
                if self._closed:
                    raise ServiceError("admission queue is closed")
            heapq.heappush(self._heap, (priority, self._seq, perf_counter(), payload))
            self._seq += 1
            self.stats.admitted += 1
            depth = len(self._heap)
            if depth > self.stats.high_water:
                self.stats.high_water = depth
            self._work.notify()

    # -------------------------------------------------------------- consumer

    def wait_for_work(self, timeout: Optional[float] = None) -> bool:
        """Block until something is queued or the queue is closed.

        Returns ``True`` when there is (possibly residual post-close) work or
        the queue closed — i.e. whenever the consumer should run another
        drain-and-decide cycle — and ``False`` only on timeout.
        """
        with self._lock:
            return self._work.wait_for(
                lambda: self._closed or bool(self._heap), timeout=timeout
            )

    def drain(self) -> List[Tuple[int, T]]:
        """Remove and return everything queued, as ``(priority, payload)``.

        Ordered by priority then admission order.  Wakes every producer
        blocked on space.  Queueing waits (enqueue → this drain) are
        accumulated into :attr:`stats`; :meth:`last_waits` exposes the
        drained batch's individual waits for the router's per-request
        accounting.
        """
        with self._lock:
            batch: List[Tuple[int, T]] = []
            waits: List[float] = []
            drained_at = perf_counter()
            while self._heap:
                priority, _seq, enqueued, payload = heapq.heappop(self._heap)
                batch.append((priority, payload))
                waits.append(drained_at - enqueued)
            if batch:
                self.stats.drained += len(batch)
                self.stats.wait_seconds_total += sum(waits)
                longest = max(waits)
                if longest > self.stats.wait_seconds_max:
                    self.stats.wait_seconds_max = longest
                self._last_waits = waits
                self._space.notify_all()
        return batch

    def last_waits(self) -> List[float]:
        """Per-payload queueing waits of the most recent non-empty drain,
        aligned with its returned batch order."""
        with self._lock:
            return list(self._last_waits)

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Refuse new admissions; already-admitted payloads remain drainable.

        Idempotent.  Wakes blocked producers (they raise
        :class:`ServiceError`) and the consumer (so it can run its final
        drain and exit).
        """
        with self._lock:
            self._closed = True
            self._space.notify_all()
            self._work.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(depth={len(self)}/{self.config.max_pending}, "
            f"policy={self.config.policy!r}, closed={self.closed})"
        )
