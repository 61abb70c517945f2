"""A cross-process result cache on sqlite, safe by construction — and by CRC.

Sharing answers *across processes* is sound for the same reason the in-memory
:class:`~repro.service.cache.ResultCache` is sound within one: every part of
the key is content-addressed or versioned.  Fingerprints are SHA-256 of the
canonicalized pattern (equal fingerprint ⇒ isomorphic focused pattern ⇒
identical answers), engine options encode as a deterministic text key
(:func:`repro.parallel.worker.options_key_text`), and the fleet's
:class:`~repro.serve.versions.VersionVector` is in the key — two processes
that built their shards the same deterministic way
(:func:`repro.serve.shards.hash_assign`) and applied the same update stream
agree on the vector, so an entry one wrote is exactly the answer the other
would compute.

What is *not* safe by construction is the storage: a shared file can be
truncated mid-write, flipped by a bad disk, locked by a peer, or written by a
newer schema.  The contract of :class:`SharedResultCache` is therefore
asymmetric:

* a **hit** is served only after every integrity gate passes — payload CRC,
  schema version, and the payload's embedded key re-checked against the
  request (so a blob transplanted under the wrong row can never be served);
* **any** failure — corrupt blob, version skew, truncation, a locked
  database, an unpicklable payload — degrades to a *miss* (the caller
  recomputes), increments ``serve.cache.degraded``, and never raises.

Reads can lie; recomputing is always correct.  Writes are best-effort for the
same reason: losing a store costs a future recompute, nothing else.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from sys import intern
from typing import Callable, Deque, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.utils.errors import ReproError

__all__ = ["SharedCacheStats", "SharedResultCache"]

SCHEMA_VERSION = 1

# Failure modes that degrade to recompute.  Deliberately broad: pickle can
# raise almost anything on a corrupted stream (UnpicklingError, EOFError,
# ValueError, AttributeError, ImportError, MemoryError is excluded on
# purpose), sqlite raises sqlite3.Error subclasses for locks/corruption, and
# a vanished or truncated file surfaces as OSError.
_DEGRADABLE = (
    sqlite3.Error,
    OSError,
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ImportError,
)


def _interned(answer) -> FrozenSet[Hashable]:
    """*answer* as a frozenset with its exact-``str`` node ids interned.

    Every hit on an entry then hands out the same id objects instead of a
    fresh copy per decode, so served answers cost memory per distinct node,
    not per operation.  Other ids (ints, tuples, ``str`` subclasses) pass
    unchanged.
    """
    try:
        return frozenset(map(intern, answer))
    except TypeError:  # some id is not an exact ``str``
        return frozenset(
            [intern(node) if type(node) is str else node for node in answer]
        )


@dataclass
class SharedCacheStats:
    """Lifetime counters of one store handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    degraded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "degraded": self.degraded,
        }


class SharedResultCache:
    """Answers keyed ``(fingerprint, options text, version text)`` in sqlite.

    Parameters
    ----------
    path:
        Database file path; created (with schema) if absent.  ``":memory:"``
        works for tests but is then per-handle, not shared.
    busy_timeout:
        Seconds sqlite waits on a locked database before the lock degrades
        to a recompute.  Kept deliberately small: waiting longer than the
        recompute would take defeats the cache.

    The handle is thread-safe (one connection, one lock) and a context
    manager.  A schema-version mismatch in an existing file puts the handle
    in **degraded mode**: every lookup is a degraded miss and stores are
    dropped — never touch a file a newer writer owns.
    """

    def __init__(self, path: str, busy_timeout: float = 0.2) -> None:
        self.path = str(path)
        self.stats = SharedCacheStats()
        self._lock = threading.Lock()
        self._closed = False
        self._degraded_mode = False
        self.last_degraded_reason = ""
        # Bounded history of every degradation, newest last: post-mortems need
        # the *sequence* of fault kinds, not just whichever happened last.
        # Appended lock-free (deque.append is atomic; _note_degraded runs both
        # inside and outside self._lock, so it must never take it).
        self.degraded_history: Deque[Tuple[float, str]] = deque(maxlen=64)
        self._degraded_listeners: List[Callable[[str], None]] = []
        try:
            self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, timeout=busy_timeout, check_same_thread=False
            )
            self._initialise_schema()
        except _DEGRADABLE as error:
            # Even an unopenable store must not take serving down with it.
            self._connection = None
            self._degraded_mode = True
            self._note_degraded(f"open: {error}")

    def _initialise_schema(self) -> None:
        assert self._connection is not None
        with self._connection:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  cache_key TEXT PRIMARY KEY,"
                "  crc INTEGER NOT NULL,"
                "  payload BLOB NOT NULL)"
            )
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif row[0] != str(SCHEMA_VERSION):
                # Version skew: a foreign writer owns this file.  Serve
                # nothing from it, write nothing to it.
                self._degraded_mode = True

    # ----------------------------------------------------------------- access

    @staticmethod
    def cache_key(fingerprint: str, options_text: str, version_text: str) -> str:
        """The row key.  Every component is process-independent text."""
        return f"{fingerprint}|{options_text}|{version_text}"

    def lookup(
        self, fingerprint: str, options_text: str, version_text: str
    ) -> Optional[FrozenSet[Hashable]]:
        """The stored answer, or ``None`` (miss *or* degraded read)."""
        key = self.cache_key(fingerprint, options_text, version_text)
        try:
            with self._lock:
                if self._closed:
                    raise ReproError("shared cache is closed")
                if self._degraded_mode or self._connection is None:
                    self._note_degraded("degraded mode")
                    return None
                row = self._connection.execute(
                    "SELECT crc, payload FROM entries WHERE cache_key = ?", (key,)
                ).fetchone()
            if row is None:
                self.stats.misses += 1
                return None
            crc, payload = row
            if zlib.crc32(payload) != crc:
                self._note_degraded("payload CRC mismatch")
                return None
            stored_key, answer = pickle.loads(payload)
            if stored_key != key:
                # A CRC-valid blob filed under the wrong row (copied, spliced,
                # or a key collision we refuse to believe in): the embedded
                # key is the last gate between corruption and a wrong answer.
                self._note_degraded("embedded key mismatch")
                return None
            frozen = _interned(answer)
        except _DEGRADABLE as error:
            self._note_degraded(f"read: {error}")
            return None
        self.stats.hits += 1
        return frozen

    def store(
        self,
        fingerprint: str,
        options_text: str,
        version_text: str,
        answer: Iterable[Hashable],
    ) -> bool:
        """Best-effort insert-or-replace; ``False`` when the write degraded."""
        key = self.cache_key(fingerprint, options_text, version_text)
        try:
            payload = pickle.dumps((key, sorted(answer, key=repr)))
            crc = zlib.crc32(payload)
            with self._lock:
                if self._closed:
                    raise ReproError("shared cache is closed")
                if self._degraded_mode or self._connection is None:
                    self._note_degraded("degraded mode")
                    return False
                with self._connection:
                    self._connection.execute(
                        "INSERT OR REPLACE INTO entries (cache_key, crc, payload) "
                        "VALUES (?, ?, ?)",
                        (key, crc, payload),
                    )
        except _DEGRADABLE as error:
            self._note_degraded(f"write: {error}")
            return False
        self.stats.stores += 1
        return True

    # ------------------------------------------------------------ bookkeeping

    def _note_degraded(self, reason: str) -> None:
        self.stats.degraded += 1
        self.stats.misses += 1
        self.last_degraded_reason = reason
        self.degraded_history.append((time.time(), reason))
        for listener in self._degraded_listeners:
            try:
                listener(reason)
            except Exception:
                # A broken observer must never turn a degraded *read* into a
                # failed one — degradation reporting is strictly best-effort.
                pass

    def add_degraded_listener(self, callback: Callable[[str], None]) -> None:
        """Invoke *callback(reason)* on every future degradation (the router
        wires its flight recorder in through this)."""
        self._degraded_listeners.append(callback)

    def degraded_reasons(self) -> List[Dict[str, object]]:
        """The retained degradation history, oldest first, as plain dicts."""
        return [
            {"timestamp": timestamp, "reason": reason}
            for timestamp, reason in list(self.degraded_history)
        ]

    def entry_count(self) -> Optional[int]:
        """Rows currently stored (``None`` when even counting degrades)."""
        try:
            with self._lock:
                if self._connection is None or self._degraded_mode:
                    return None
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
            return int(row[0])
        except _DEGRADABLE:
            return None

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    def __enter__(self) -> "SharedResultCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedResultCache(path={self.path!r}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, degraded={self.stats.degraded})"
        )
