"""SharedResultCache unit tests: the sqlite L2 and its integrity gates.

Fault *injection* (truncation, byte flips, locks, mid-write kills against a
live fleet) lives in ``test_serve_faults.py``; this file pins the handle's
own contract — keying, round-trips, schema skew, closed semantics.
"""

from __future__ import annotations

import pickle
import sqlite3
import zlib

import pytest

from repro.serve import SharedResultCache
from repro.serve.shared_cache import SCHEMA_VERSION
from repro.utils.errors import ReproError

FP = "c" * 64
OPT = "(engine='qmatch')"
VER = "3:1:4"


@pytest.fixture
def store(tmp_path):
    cache = SharedResultCache(str(tmp_path / "shared.sqlite"))
    yield cache
    cache.close()


def test_store_lookup_round_trip(store):
    answer = frozenset({"a", ("tuple", 1), 7})
    assert store.store(FP, OPT, VER, answer)
    assert store.lookup(FP, OPT, VER) == answer
    assert store.stats.hits == 1 and store.stats.stores == 1
    assert store.entry_count() == 1


def test_miss_on_any_key_component(store):
    store.store(FP, OPT, VER, {"x"})
    assert store.lookup("d" * 64, OPT, VER) is None
    assert store.lookup(FP, "(engine='other')", VER) is None
    assert store.lookup(FP, OPT, "3:1:5") is None
    assert store.stats.misses == 3 and store.stats.degraded == 0


def test_replace_overwrites_in_place(store):
    store.store(FP, OPT, VER, {"old"})
    store.store(FP, OPT, VER, {"new"})
    assert store.lookup(FP, OPT, VER) == frozenset({"new"})
    assert store.entry_count() == 1


def test_cross_handle_sharing(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    with SharedResultCache(path) as writer:
        writer.store(FP, OPT, VER, {"shared-answer"})
    with SharedResultCache(path) as reader:
        assert reader.lookup(FP, OPT, VER) == frozenset({"shared-answer"})
        assert reader.stats.hits == 1


def test_schema_version_skew_degrades_everything(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    with SharedResultCache(path) as writer:
        writer.store(FP, OPT, VER, {"x"})
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
    connection.close()
    with SharedResultCache(path) as skewed:
        # A foreign writer owns the file: reads degrade, writes are dropped.
        assert skewed.lookup(FP, OPT, VER) is None
        assert not skewed.store(FP, OPT, "9:9", {"y"})
        assert skewed.stats.degraded == 2 and skewed.stats.hits == 0
        assert skewed.entry_count() is None
    # The original (matching-version) handle still works and the foreign
    # entry was never clobbered.
    connection = sqlite3.connect(path)
    count = connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
    connection.close()
    assert count == 1


def test_unopenable_path_degrades_not_raises(tmp_path):
    missing_dir = tmp_path / "does" / "not" / "exist" / "db.sqlite"
    cache = SharedResultCache(str(missing_dir))
    assert cache.stats.degraded >= 1
    assert cache.lookup(FP, OPT, VER) is None
    assert not cache.store(FP, OPT, VER, {"x"})
    cache.close()


def test_embedded_key_gate_rejects_transplanted_blob(tmp_path):
    """A CRC-valid payload copied under another row must never be served."""
    path = str(tmp_path / "shared.sqlite")
    store = SharedResultCache(path)
    store.store(FP, OPT, "1:1", {"answer-at-1:1"})
    donor_key = SharedResultCache.cache_key(FP, OPT, "1:1")
    target_key = SharedResultCache.cache_key(FP, OPT, "2:2")
    connection = sqlite3.connect(path)
    with connection:
        crc, payload = connection.execute(
            "SELECT crc, payload FROM entries WHERE cache_key = ?", (donor_key,)
        ).fetchone()
        connection.execute(
            "INSERT OR REPLACE INTO entries (cache_key, crc, payload) VALUES (?, ?, ?)",
            (target_key, crc, payload),
        )
    connection.close()
    # CRC passes (the blob is intact) but the embedded key betrays the splice.
    assert store.lookup(FP, OPT, "2:2") is None
    assert store.last_degraded_reason == "embedded key mismatch"
    # The legitimate row is untouched.
    assert store.lookup(FP, OPT, "1:1") == frozenset({"answer-at-1:1"})
    store.close()


@pytest.mark.parametrize("others", [(), (7, ("tuple", 1))], ids=["str-only", "mixed"])
def test_hits_share_interned_str_ids(store, others):
    """Every hit on one entry hands out the same ``str`` id objects."""
    # Built at run time, so no id is a compile-time interned constant.
    ids = ["-".join(("node", str(number))) for number in range(50)]
    assert store.store(FP, OPT, VER, ids + list(others))
    first = store.lookup(FP, OPT, VER)
    second = store.lookup(FP, OPT, VER)
    assert first == second == frozenset(ids + list(others))
    first_ids = {node: node for node in first if isinstance(node, str)}
    second_ids = [node for node in second if isinstance(node, str)]
    assert len(second_ids) == len(ids)
    assert all(node is first_ids[node] for node in second_ids)


def _overwrite_payload(path, key, payload, crc=None):
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE entries SET crc = ?, payload = ? WHERE cache_key = ?",
            (zlib.crc32(payload) if crc is None else crc, payload, key),
        )
    connection.close()


def test_corrupt_payload_still_degrades_to_none(tmp_path):
    path = str(tmp_path / "shared.sqlite")
    store = SharedResultCache(path)
    store.store(FP, OPT, VER, {"answer"})
    key = SharedResultCache.cache_key(FP, OPT, VER)
    # CRC mismatch: the gate in front of the decode refuses it.
    _overwrite_payload(path, key, pickle.dumps((key, ["answer"])), crc=0)
    assert store.lookup(FP, OPT, VER) is None
    assert store.last_degraded_reason == "payload CRC mismatch"
    # CRC-valid, but not a pickle; then a pickle whose answer is no iterable.
    for payload in (b"not a pickle", pickle.dumps((key, 5))):
        _overwrite_payload(path, key, payload)
        assert store.lookup(FP, OPT, VER) is None
        assert store.last_degraded_reason.startswith("read: ")
    assert store.stats.hits == 0 and store.stats.degraded == 3
    store.close()


def test_closed_handle_raises_repro_error_not_degrades(store):
    store.close()
    with pytest.raises(ReproError):
        store.lookup(FP, OPT, VER)
    with pytest.raises(ReproError):
        store.store(FP, OPT, VER, {"x"})


def test_close_is_idempotent_and_repr_is_cheap(store):
    store.close()
    store.close()
    assert "SharedResultCache" in repr(store)
