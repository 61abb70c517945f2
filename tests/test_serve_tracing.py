"""Fleet-wide tracing: one served query ⇒ one connected span tree.

The acceptance contract of this suite: a query submitted to a 4-shard
:class:`ShardedService` whose shards run the **process** pool backend yields
a single connected span tree — ``serve.submit`` → synthetic admission wait →
``serve.batch`` → ``serve.fanout`` → per-shard ``service.batch`` →
``pool.round`` → ``worker.fragment`` spans recorded in *other processes* and
shipped back piggybacked.  Deltas get the same treatment
(``serve.delta`` → ``serve.delta.shard`` → ``service.delta`` with the
refresh-vs-rebuild outcome), and the trees stay connected under an
8-thread submit/apply_delta/close interleave.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict

import pytest

from fixtures import build_paper_g1, build_q2, run_threads
from repro.delta import GraphDelta
from repro.graph.generators import small_world_social_graph
from repro.obs.trace import (
    active_tracing,
    build_span_tree,
    format_span_tree,
    get_tracer,
)
from repro.parallel import PQMatch
from repro.patterns import PatternBuilder
from repro.serve import AdmissionConfig, ShardedService
from repro.utils.errors import Overloaded, ServiceError


def _group_by_trace(records):
    groups = defaultdict(list)
    for record in records:
        groups[record.trace_id].append(record)
    return groups


def _assert_connected(records):
    """Every trace has exactly one root and every parent resolves in-trace."""
    for trace_id, group in _group_by_trace(records).items():
        ids = {record.span_id for record in group}
        roots = [record for record in group if record.parent_id is None]
        assert len(roots) == 1, (
            f"trace {trace_id} has {len(roots)} roots: "
            f"{[record.name for record in roots]}"
        )
        for record in group:
            if record.parent_id is not None:
                assert record.parent_id in ids, (
                    f"trace {trace_id}: {record.name} parented outside its trace"
                )


# ---------------------------------------------------------------------------
# Acceptance: 4 shards, process backend, remote worker spans, one tree
# ---------------------------------------------------------------------------


def test_four_shard_fleet_query_yields_one_connected_tree_with_remote_spans():
    graph = small_world_social_graph(60, 140, seed=11)
    from repro.datasets.workloads import workload_patterns

    pattern = workload_patterns(graph, count=1, seed=7)[0]
    fleet = ShardedService(
        graph,
        num_shards=4,
        d=2,
        coordinator_factory=lambda shard: PQMatch(
            num_workers=2, d=2, executor="process"
        ),
    )
    with active_tracing() as tracer:
        with fleet:
            result = fleet.submit(pattern).result(timeout=300)
        records = tracer.records()
    assert not result.cached

    # one submit → one trace → one connected tree, rooted at serve.submit
    assert len({record.trace_id for record in records}) == 1
    _assert_connected(records)
    roots = build_span_tree(records)
    assert len(roots) == 1 and roots[0].record.name == "serve.submit"
    names = {record.name for record in records}
    assert {
        "serve.submit",
        "serve.admission.wait",
        "serve.batch",
        "serve.fanout",
        "service.batch",
        "pool.round",
    } <= names

    # fan-out reached all 4 shards inside the one tree...
    batches = [record for record in records if record.name == "service.batch"]
    assert len(batches) == 4

    # ...and ≥1 worker span per shard pool was recorded in another process.
    remote = [
        record
        for record in records
        if record.name == "worker.fragment" and record.pid != os.getpid()
    ]
    assert remote
    assert "(remote)" in format_span_tree(records, show_times=False)


# ---------------------------------------------------------------------------
# Thread-backend unit contracts (fast)
# ---------------------------------------------------------------------------


def test_submitted_query_tree_contains_admission_wait():
    with active_tracing() as tracer:
        with ShardedService(build_paper_g1(), num_shards=2) as fleet:
            fleet.submit(build_q2()).result(timeout=60)
        records = tracer.records()
    _assert_connected(records)
    assert len({record.trace_id for record in records}) == 1
    wait = next(r for r in records if r.name == "serve.admission.wait")
    submit = next(r for r in records if r.name == "serve.submit")
    assert wait.parent_id == submit.span_id
    assert wait.wall >= 0.0


def test_deduplicated_submit_is_annotated_and_childless():
    """A rider's trace is just its submit span, marked deduplicated; the

    leader's trace carries the shared serve.batch subtree."""
    with active_tracing() as tracer:
        with ShardedService(build_paper_g1(), num_shards=2) as fleet:
            # hold the evaluate lock so the second submit rides the first
            with fleet._evaluate_lock:
                first = fleet.submit(build_q2())
                second = fleet.submit(build_q2())
                assert second is first
            first.result(timeout=60)
        records = tracer.records()
    _assert_connected(records)
    submits = [r for r in records if r.name == "serve.submit"]
    assert len(submits) == 2
    assert sum(1 for r in submits if r.tag("deduplicated") == "True") == 1


def test_direct_evaluate_tree_has_no_admission_spans():
    with active_tracing() as tracer:
        with ShardedService(build_paper_g1(), num_shards=2) as fleet:
            fleet.evaluate(build_q2())
        records = tracer.records()
    _assert_connected(records)
    roots = build_span_tree(records)
    assert len(roots) == 1 and roots[0].record.name == "serve.batch"
    assert all(record.name != "serve.admission.wait" for record in records)


def test_delta_tree_routes_shards_with_refresh_outcomes():
    with active_tracing() as tracer:
        with ShardedService(build_paper_g1(), num_shards=2) as fleet:
            touched = None
            fleet.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
            touched = fleet.stats.shards_touched
        records = tracer.records()
    _assert_connected(records)
    roots = build_span_tree(records)
    assert len(roots) == 1
    root = roots[0].record
    assert root.name == "serve.delta"
    assert int(root.tag("touched")) == touched
    shard_spans = [r for r in records if r.name == "serve.delta.shard"]
    assert len(shard_spans) == touched
    assert all(r.parent_id == root.span_id for r in shard_spans)
    # each touched shard's own service.delta span nests under its routing
    # span and names its index maintenance outcome
    service_spans = [r for r in records if r.name == "service.delta"]
    shard_ids = {r.span_id for r in shard_spans}
    for record in service_spans:
        assert record.parent_id in shard_ids
        assert record.tag("index") in ("refreshed", "rebuilt")


def test_untraced_fleet_records_nothing():
    with ShardedService(build_paper_g1(), num_shards=2) as fleet:
        fleet.submit(build_q2()).result(timeout=60)
        fleet.apply_delta(GraphDelta.insert_edge("x1", "v1", "follow"))
    assert get_tracer().records() == ()


# ---------------------------------------------------------------------------
# Satellite (a): serve-tier fields on the slow-query log
# ---------------------------------------------------------------------------


def test_slow_query_log_carries_serve_tier_fields():
    with ShardedService(
        build_paper_g1(), num_shards=2, slow_query_threshold=0.0
    ) as fleet:
        pattern = build_q2()
        fleet.submit(pattern).result(timeout=60)
        fleet.evaluate(pattern)  # L1 hit
        entries = fleet.introspect()["slow_queries"]
    computed = next(e for e in entries if e["cache_route"] == "fanout")
    hit = next(e for e in entries if e["cache_route"] == "l1")
    assert computed["shard_fanout"] == 2 and not computed["cached"]
    assert hit["shard_fanout"] == 0 and hit["cached"]
    # the submitted request actually waited in admission (>= 0 is all wall
    # clocks guarantee, but the field must be present and numeric)
    assert computed["admission_wait_seconds"] >= 0.0


# ---------------------------------------------------------------------------
# Satellite (c): connectedness under an 8-thread interleave
# ---------------------------------------------------------------------------


def test_span_trees_stay_connected_under_8_thread_interleave():
    graph = build_paper_g1()
    patterns = [build_q2()]
    fleet = ShardedService(
        graph, num_shards=2, admission=AdmissionConfig(max_pending=4096)
    )
    stop = threading.Event()

    def submitter():
        while not stop.is_set():
            try:
                future = fleet.submit(patterns[0])
            except (ServiceError, Overloaded):
                return
            try:
                future.result(timeout=60.0)
            except Exception:
                return

    def mutator(worker: int):
        node = f"traced-{worker}"
        for _ in range(10):
            if stop.is_set():
                return
            try:
                inverse = fleet.apply_delta(
                    GraphDelta.build(
                        node_inserts=[(node, "person")],
                        edge_inserts=[("x1", node, "follow")],
                    )
                )
                fleet.apply_delta(inverse)
            except ServiceError:
                return

    def closer():
        # let the others interleave a little, then slam the door
        import time

        time.sleep(0.15)
        stop.set()
        fleet.close()

    with active_tracing() as tracer:
        try:
            run_threads(
                [submitter] * 5
                + [lambda: mutator(0), lambda: mutator(1)]
                + [closer],
                timeout=120.0,
            )
        finally:
            fleet.close()
        records = tracer.records()

    assert records, "the interleave produced no spans at all"
    _assert_connected(records)
    # every query trace is rooted at its submit (or a direct serve.batch from
    # the dispatcher's fallback path); delta traces at serve.delta
    for roots in build_span_tree(records):
        assert roots.record.name in ("serve.submit", "serve.batch", "serve.delta")
