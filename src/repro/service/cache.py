"""A bounded, version-aware LRU cache for query answers.

The cache sits between the :class:`~repro.service.server.QueryService` façade
and the matching engines: an answer computed once for a canonicalized pattern
(:mod:`repro.service.patterns`) is reused for every equivalent query — for as
long as the graph has not structurally changed.

Invalidation piggybacks on the library's existing staleness discipline
instead of scanning or subscribing to anything: every entry is keyed on the
graph's **mutation counter** (:attr:`repro.graph.PropertyGraph.version`, the
same counter :class:`repro.index.GraphIndex` freshness checks use).  A
structural mutation bumps the counter, so every stale entry becomes
*unreachable* in O(1) — no invalidation pass — and ages out of the bounded
LRU under new traffic.  Attribute-only updates do **not** bump the counter
(the matching semantics never read attributes), so they keep the cache warm —
exactly mirroring the index layer's contract.

Entries **pin the graph object they answer for**: the key uses ``id(graph)``
for speed, and pinning makes object-identity reuse of a dead graph's id
impossible while its entries live (the same discipline
:class:`repro.parallel.executor.ProcessExecutor` applies to payloads).  A
lookup additionally verifies ``entry.graph is graph``.

All operations take an internal lock, so a cache instance may be shared by
concurrent ``submit`` callers.  Counters (hits / misses / insertions /
evictions) are exposed through :attr:`ResultCache.stats` and surfaced by the
serving benchmark's figure JSON.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.graph.digraph import PropertyGraph
from repro.utils.errors import ReproError

__all__ = ["CacheStats", "ResultCache"]

NodeId = Hashable

# (graph identity, graph version, pattern fingerprint, engine options key).
# The version slot is deliberately *opaque*: a single service files entries
# under the graph's scalar mutation counter, while the scale-out router files
# them under a per-shard :class:`repro.serve.VersionVector`.  The cache never
# does arithmetic on the slot — it only compares it for equality against the
# graph object's current ``.version`` — so any hashable, equality-comparable
# version token works.  Collapsing a fleet's vector to a scalar here would
# alias distinct fleet states (see ``tests/test_serve_versions.py`` for the
# stale read that permits).
CacheKey = Tuple[int, Hashable, str, Hashable]

# How many distinct answers a cache remembers by content, so that an equal
# answer stored again is handed out as the object already in circulation.
SHARED_ANSWERS = 1024


@dataclass
class CacheStats:
    """Monotone counters describing one cache's lifetime behaviour.

    ``purged`` counts stale entries dropped by :meth:`ResultCache.purge_stale`
    (as opposed to capacity ``evictions``); ``migrated`` counts entries
    carried forward across a graph version by
    :meth:`ResultCache.carry_forward`.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    purged: int = 0
    migrated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (1.0 on an untouched cache, by convention)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 1.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "purged": self.purged,
            "migrated": self.migrated,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    """One cached answer, pinning the graph it was computed on."""

    __slots__ = ("graph", "answer")

    def __init__(self, graph: PropertyGraph, answer: FrozenSet[NodeId]) -> None:
        self.graph = graph
        self.answer = answer


class ResultCache:
    """Bounded LRU mapping ``(graph, version, fingerprint, options)`` → answer.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is evicted
        first.  Stale entries (superseded graph versions) are preferentially
        unreachable anyway and simply age out.
    """

    def __init__(self, capacity: int = 1024, purge_interval: int = 64) -> None:
        if capacity <= 0:
            raise ReproError("cache capacity must be positive")
        if purge_interval <= 0:
            raise ReproError("purge interval must be positive")
        self.capacity = capacity
        # Every purge_interval insertions, store() sweeps superseded-version
        # entries out (see purge_stale): stale entries are unreachable by
        # construction, but while they wait for LRU eviction they pin their —
        # possibly mutated-and-forgotten — graph object alive.
        self.purge_interval = purge_interval
        self._inserts_since_purge = 0
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        # The last SHARED_ANSWERS distinct answers stored, by content.
        # Distinct fingerprints often have equal answers (a threshold that
        # does not bind, one answer re-promoted from a shared store), and
        # every caller that keeps a served answer retains its object, so
        # equal answers are handed out as one frozenset.
        self._shared: "OrderedDict[FrozenSet[NodeId], FrozenSet[NodeId]]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ----------------------------------------------------------------- access

    def _key(
        self,
        graph: PropertyGraph,
        fingerprint: str,
        options_key: Hashable,
        version: Optional[Hashable],
    ) -> CacheKey:
        return (
            id(graph),
            graph.version if version is None else version,
            fingerprint,
            options_key,
        )

    def lookup(
        self,
        graph: PropertyGraph,
        fingerprint: str,
        options_key: Hashable = None,
        version: Optional[Hashable] = None,
    ) -> Optional[FrozenSet[NodeId]]:
        """The cached answer for *fingerprint* on *graph*'s current version.

        Returns ``None`` on a miss.  A hit refreshes the entry's LRU position.
        The answer is a ``frozenset`` — share it freely, it cannot be mutated
        into disagreeing with the cache.

        ``version`` pins the graph version the caller observed; callers that
        compute on a miss **must** pass the version they looked up under to
        the matching :meth:`store`, so an answer computed against version *V*
        can never be filed under a later version if the graph mutates while
        the computation runs.
        """
        key = self._key(graph, fingerprint, options_key, version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                answer = entry.answer
            else:
                self.stats.misses += 1
                answer = None
        return answer

    def store(
        self,
        graph: PropertyGraph,
        fingerprint: str,
        answer: Iterable[NodeId],
        options_key: Hashable = None,
        version: Optional[Hashable] = None,
    ) -> FrozenSet[NodeId]:
        """Insert (or refresh) the answer for *fingerprint*.

        Pass the *version* the answer was computed against (see
        :meth:`lookup`); without it the graph's current counter is used,
        which is only safe when no mutation can have interleaved.
        """
        frozen = frozenset(answer)
        hash(frozen)  # O(|answer|) once, outside the lock; frozensets cache it
        key = self._key(graph, fingerprint, options_key, version)
        with self._lock:
            shared = self._shared.get(frozen)
            if shared is None:
                self._shared[frozen] = frozen
                if len(self._shared) > SHARED_ANSWERS:
                    self._shared.popitem(last=False)
            else:
                self._shared.move_to_end(frozen)
                frozen = shared
            self._entries[key] = _Entry(graph, frozen)
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            self._inserts_since_purge += 1
            if self._inserts_since_purge >= self.purge_interval:
                self._purge_stale_locked()
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return frozen

    # -------------------------------------------------------------- migration

    def peek(
        self,
        graph: PropertyGraph,
        fingerprint: str,
        options_key: Hashable = None,
        version: Optional[Hashable] = None,
    ) -> Optional[FrozenSet[NodeId]]:
        """Like :meth:`lookup`, but invisible: no stats, no LRU refresh.

        The delta-migration path inspects cached answers to decide carry vs
        drop; that inspection is bookkeeping, not traffic, and must not skew
        hit rates or entry recency.
        """
        key = self._key(graph, fingerprint, options_key, version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                return entry.answer
            return None

    def fingerprints_for(
        self, graph: PropertyGraph, version: Hashable
    ) -> Tuple[Tuple[str, Hashable], ...]:
        """The ``(fingerprint, options key)`` pairs cached for one graph version.

        The delta layer iterates these to decide, entry by entry, whether an
        answer can be carried across an applied batch (see
        :meth:`repro.service.server.QueryService.apply_delta`).
        """
        graph_id = id(graph)
        with self._lock:
            return tuple(
                (key[2], key[3])
                for key, entry in self._entries.items()
                if key[0] == graph_id and key[1] == version and entry.graph is graph
            )

    def carry_forward(
        self,
        graph: PropertyGraph,
        fingerprints: Iterable[Tuple[str, Hashable]],
        old_version: Hashable,
        new_version: Hashable,
    ) -> int:
        """Re-file cached answers from *old_version* under *new_version*.

        The **caller** owns the soundness argument — the cache cannot know
        whether an answer survived a mutation; it only moves what it is told
        survives, atomically under its lock.  The old entries are dropped
        (they are unreachable anyway), the carried ones keep the answer
        object.  Returns the number of entries carried.

        The versions are opaque tokens, not counters (see :data:`CacheKey`):
        a sharded fleet carries entries between *vectors*, and this method
        must never assume ``new_version == old_version + 1`` — there is no
        ``+ 1`` on a vector, and inventing one by collapsing to a scalar is
        exactly the aliasing bug ``tests/test_serve_versions.py`` pins.
        """
        carried = 0
        with self._lock:
            for fingerprint, options_key in fingerprints:
                old_key = self._key(graph, fingerprint, options_key, old_version)
                entry = self._entries.pop(old_key, None)
                if entry is None or entry.graph is not graph:
                    continue
                new_key = self._key(graph, fingerprint, options_key, new_version)
                self._entries[new_key] = entry
                self._entries.move_to_end(new_key)
                carried += 1
            self.stats.migrated += carried
        return carried

    # -------------------------------------------------------------- lifecycle

    def purge_stale(self) -> int:
        """Drop every entry whose graph has moved past the entry's version.

        Stale entries are already unreachable (their version is no longer
        looked up), but until LRU pressure evicts them they pin their graph
        object — a mutated-and-replaced graph could be kept alive behind
        entries nobody can hit.  ``store`` runs this sweep automatically every
        :attr:`purge_interval` insertions; call it directly after bulk
        mutations.  Returns the number of entries dropped.
        """
        with self._lock:
            return self._purge_stale_locked()

    def _purge_stale_locked(self) -> int:
        stale = [
            key for key, entry in self._entries.items() if entry.graph.version != key[1]
        ]
        for key in stale:
            del self._entries[key]
        self.stats.purged += len(stale)
        self._inserts_since_purge = 0
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._shared.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}/{self.capacity}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions})"
        )
