"""Concurrency stress: submit/apply_delta/close interleaved across threads.

The property under load is **epoch atomicity**: every served answer reflects
the fleet strictly before or strictly after any delta batch — never a torn
read where one shard answered pre-delta and another post-delta.  The fixture
graph makes a torn read *observable*: one delta batch changes the answer on
BOTH islands at once, so the only legal answers are the full pre-set and the
full post-set; any mix means a shard was consulted across an epoch boundary.

``ThreadHarness`` (tests/fixtures.py) barrier-starts every worker and joins
with a deadline, so a deadlock fails the test with named culprits instead of
hanging pytest.
"""

from __future__ import annotations

import threading

import pytest

from fixtures import FakeClock, ThreadHarness, run_threads
from repro.delta import GraphDelta
from repro.graph import PropertyGraph
from repro.patterns import PatternBuilder
from repro.serve import AdmissionConfig, ShardedService
from repro.utils.errors import Overloaded, ServiceError


def _islands_graph(chain=6):
    graph = PropertyGraph("two-islands")
    for island in ("a", "b"):
        prev = None
        for index in range(chain):
            node = f"{island}{index}"
            graph.add_node(node, "person")
            if prev is not None:
                graph.add_edge(prev, node, "follow")
            prev = node
    return graph


def _islands_fleet(**kwargs):
    graph = _islands_graph()
    partition = {node: (0 if str(node).startswith("a") else 1) for node in graph.nodes()}
    return ShardedService(graph, num_shards=2, d=2, partition=partition, **kwargs)


def _two_followees_pattern():
    return (
        PatternBuilder("two-followees")
        .focus("xo", "person")
        .node("z", "person")
        .edge("xo", "z", "follow", at_least=2)
        .build()
    )


# Chain graphs give every node exactly one followee, so "≥ 2 followees" is
# empty; ONE delta batch then gives a0 and b0 their second followee at once.
PRE = frozenset()
POST = frozenset({"a0", "b0"})
EPOCH_DELTA = GraphDelta.build(
    edge_inserts=[("a0", "a2", "follow"), ("b0", "b2", "follow")]
)


# ---------------------------------------------------------------------------
# The headline stress: 8 threads, answers are pre- or post-delta, never a mix
# ---------------------------------------------------------------------------


def test_interleaved_submit_evaluate_delta_never_tears_an_epoch():
    fleet = _islands_fleet(admission=AdmissionConfig(max_pending=4096))
    pattern = _two_followees_pattern()
    observed = set()
    observed_lock = threading.Lock()

    def record(answer):
        assert answer in (PRE, POST), f"torn epoch: {sorted(map(repr, answer))}"
        with observed_lock:
            observed.add(answer)

    def submitter():
        for _ in range(25):
            try:
                future = fleet.submit(pattern)
            except Overloaded:
                continue
            record(future.result(timeout=30.0).answer)

    def evaluator():
        for _ in range(25):
            record(fleet.evaluate(pattern).answer)

    def mutator():
        for _ in range(12):
            inverse = fleet.apply_delta(EPOCH_DELTA)
            # Only this thread mutates, so between the delta and its inverse
            # the fleet is in the POST epoch.
            record(fleet.evaluate(pattern).answer)
            fleet.apply_delta(inverse)
            fleet.check_invariants()

    try:
        # Nothing has mutated yet: the fleet is in the PRE epoch.
        record(fleet.evaluate(pattern).answer)
        # 6 submitters + 1 direct evaluator + 1 mutator = 8 threads.
        run_threads([submitter] * 6 + [evaluator, mutator], timeout=120.0)
    finally:
        fleet.close()
    # Both epochs were observed, and the cache/vector machinery never served
    # a third answer (``record`` rejects any torn read as it happens).
    assert observed == {PRE, POST}
    fleet.check_invariants()


def test_submitters_racing_close_resolve_or_refuse_cleanly():
    fleet = _islands_fleet()
    pattern = _two_followees_pattern()
    resolved = []
    refused = []
    lock = threading.Lock()
    ready = threading.Barrier(9, timeout=30.0)

    def submitter():
        ready.wait()
        for _ in range(40):
            try:
                future = fleet.submit(pattern)
            except (ServiceError, Overloaded):
                with lock:
                    refused.append(1)
                return
            result = future.result(timeout=30.0)
            with lock:
                resolved.append(result.answer)

    def closer():
        ready.wait()
        fleet.close()

    run_threads([submitter] * 8 + [closer], timeout=120.0)
    # Every submit either produced a real pre-close answer or refused loudly;
    # nothing hung and nothing returned garbage.
    assert all(answer == PRE for answer in resolved)
    assert fleet.admission.closed
    with pytest.raises(ServiceError):
        fleet.submit(pattern)


def test_concurrent_identical_submits_share_fanouts():
    fleet = _islands_fleet(admission=AdmissionConfig(max_pending=4096))
    pattern = _two_followees_pattern()

    def submitter():
        for _ in range(20):
            try:
                future = fleet.submit(pattern)
            except Overloaded:
                continue
            assert future.result(timeout=30.0).answer == PRE

    try:
        run_threads([submitter] * 8, timeout=120.0)
    finally:
        fleet.close()
    # The vector never moved, so at most one fan-out can ever have computed;
    # everything else was L1 hits or in-flight dedup.
    assert fleet.stats.fanout_rounds <= 1
    assert fleet.stats.deduplicated + fleet.cache.stats.hits >= 1


# ---------------------------------------------------------------------------
# The harness itself (a test-archetype PR tests its own instruments)
# ---------------------------------------------------------------------------


def test_fake_clock_advances_monotonically_and_thread_safely():
    clock = FakeClock(start=100.0)
    assert clock() == 100.0

    def advancer():
        for _ in range(1000):
            clock.advance(0.001)

    run_threads([advancer] * 4, timeout=30.0)
    assert clock() == pytest.approx(104.0)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_thread_harness_reraises_worker_failures():
    def failing():
        raise AssertionError("worker-level failure")

    with pytest.raises(AssertionError, match="worker-level failure"):
        run_threads([failing, lambda: None], timeout=30.0)


def test_thread_harness_names_stuck_threads_instead_of_hanging():
    release = threading.Event()

    def stuck():
        release.wait(timeout=30.0)

    harness = ThreadHarness([stuck], name="stuck-demo").start()
    with pytest.raises(AssertionError, match="stuck-demo-0"):
        harness.join(timeout=0.2)
    release.set()
    harness.join(timeout=30.0)
