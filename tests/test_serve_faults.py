"""Storage fault injection: every way the shared store lies, serving survives.

The asymmetric contract under test (see ``repro/serve/shared_cache.py``): a
hit is served only after every integrity gate passes; ANY read failure —
flipped bytes, truncation, a peer's lock, unpicklable payloads, schema skew —
degrades to a recompute.  Degraded is observable (``serve.cache.degraded``
moves, ``last_degraded_reason`` names the gate) and never wrong: each test
pins the served answer against a fresh single-service oracle.
"""

from __future__ import annotations

import pickle
import sqlite3
import zlib

import pytest

from fixtures import build_paper_g1, build_q2, build_q3
from repro.delta import GraphDelta
from repro.serve import ShardedService, SharedResultCache
from repro.service import QueryService


def _oracle_answer(graph, pattern):
    with QueryService(graph.copy()) as oracle:
        return oracle.evaluate(pattern).answer


@pytest.fixture
def warmed(tmp_path):
    """A shared store warmed by a producer fleet, plus the expected answers."""
    path = str(tmp_path / "shared.sqlite")
    expected = {
        "q2": _oracle_answer(build_paper_g1(), build_q2()),
        "q3": _oracle_answer(build_paper_g1(), build_q3(2)),
    }
    with ShardedService(build_paper_g1(), num_shards=2, shared_cache=path) as producer:
        producer.evaluate(build_q2())
        producer.evaluate(build_q3(2))
    return path, expected


def _consumer(path):
    return ShardedService(build_paper_g1(), num_shards=2, shared_cache=path)


def _rows(path):
    connection = sqlite3.connect(path)
    rows = connection.execute("SELECT cache_key, crc, payload FROM entries").fetchall()
    connection.close()
    return rows


# ---------------------------------------------------------------------------
# Corrupt payloads
# ---------------------------------------------------------------------------


def test_flipped_payload_byte_degrades_to_recompute(warmed):
    path, expected = warmed
    connection = sqlite3.connect(path)
    with connection:
        for key, _crc, payload in _rows(path):
            mangled = bytes([payload[0] ^ 0xFF]) + payload[1:]
            connection.execute(
                "UPDATE entries SET payload = ? WHERE cache_key = ?", (mangled, key)
            )
    connection.close()
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert fleet.shared.stats.degraded >= 2
        assert fleet.shared.last_degraded_reason == "payload CRC mismatch"
        # Recompute repaired the rows: a second consumer gets clean hits.
    with _consumer(path) as healed:
        assert healed.evaluate(build_q2()).answer == expected["q2"]
        assert healed.shared.stats.degraded == 0 and healed.stats.shared_hits == 1


def test_crc_consistent_garbage_fails_the_unpickle_gate(warmed):
    """Corruption that rewrites the CRC too must still die — at pickle."""
    path, expected = warmed
    garbage = b"\x80\x04not really a pickle stream"
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE entries SET payload = ?, crc = ?", (garbage, zlib.crc32(garbage))
        )
    connection.close()
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.shared.stats.degraded >= 1
        assert fleet.shared.last_degraded_reason.startswith("read:")


def test_transplanted_blob_fails_the_embedded_key_gate(warmed):
    """CRC-valid, unpickles fine, wrong row: the last gate catches it."""
    path, expected = warmed
    rows = _rows(path)
    assert len(rows) == 2
    connection = sqlite3.connect(path)
    with connection:
        # File q3's (differing) payload under q2's key, CRC intact.
        (key_a, _crc_a, _payload_a), (_key_b, crc_b, payload_b) = rows
        connection.execute(
            "UPDATE entries SET crc = ?, payload = ? WHERE cache_key = ?",
            (crc_b, payload_b, key_a),
        )
    connection.close()
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert fleet.shared.stats.degraded == 1
        assert fleet.shared.last_degraded_reason == "embedded key mismatch"


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def test_truncated_database_file_degrades_not_crashes(warmed):
    path, expected = warmed
    with open(path, "r+b") as handle:
        handle.truncate(600)  # slice through the first page's btree content
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert fleet.shared.stats.degraded >= 1


def test_zero_length_database_file_is_reinitialised(warmed):
    path, expected = warmed
    with open(path, "wb"):
        pass  # sqlite treats an empty file as a fresh database
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.shared.stats.stores >= 1  # schema rebuilt, row restored


# ---------------------------------------------------------------------------
# Locks: a peer holding the database mid-read and mid-write
# ---------------------------------------------------------------------------


def test_peer_exclusive_lock_degrades_reads_and_writes(warmed):
    path, expected = warmed
    blocker = sqlite3.connect(path)
    blocker.execute("BEGIN EXCLUSIVE")
    try:
        with _consumer(path) as fleet:
            # Mid-read: the warm entry exists but the lock makes it a miss...
            assert fleet.evaluate(build_q2()).answer == expected["q2"]
            # ...and mid-write: storing the recompute degrades too.
            assert fleet.shared.stats.degraded >= 2
            assert fleet.stats.shared_hits == 0
    finally:
        blocker.rollback()
        blocker.close()
    # Lock released: the original producer's row is intact and served.
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.stats.shared_hits == 1


def test_lock_appearing_mid_run_only_degrades_that_window(warmed):
    path, expected = warmed
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]  # clean hit
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
            assert fleet.shared.stats.degraded >= 1
        finally:
            blocker.rollback()
            blocker.close()
        assert fleet.stats.shared_hits == 1  # the pre-lock hit still counted


# ---------------------------------------------------------------------------
# Staleness: the version check keeps poisoned-by-time entries unreachable
# ---------------------------------------------------------------------------


def test_stale_vector_entries_are_unreachable_after_delta(warmed):
    path, expected = warmed
    with _consumer(path) as fleet:
        fleet.apply_delta(
            GraphDelta.build(edge_inserts=[("x1", "v1", "follow")])
        )
        served = fleet.evaluate(build_q2())
        # The store holds only pre-delta entries; the moved vector keys them
        # out, so this was a plain miss + recompute — and it is correct.
        assert not served.cached
        assert fleet.stats.shared_hits == 0
        assert served.answer == _oracle_answer(fleet.graph, build_q2())
        assert fleet.shared.stats.degraded == 0  # staleness is not a fault
