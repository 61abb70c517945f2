"""Span tracing (:mod:`repro.obs.trace`) — incl. the cross-process contract.

The headline acceptance test: one query served through ``QueryService.submit``
on the **process** backend yields a single connected span tree — dispatcher
batch → dispatch → pool round → per-fragment worker spans — where the worker
spans were recorded in pool worker processes (their ``pid`` differs) and
shipped back piggybacked on the fragment results.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest

from repro.datasets import benchmark_graph, paper_pattern
from repro.obs.trace import (
    TraceContext,
    active_tracing,
    build_span_tree,
    current_context,
    disable_tracing,
    format_span_tree,
    get_tracer,
    span,
    tracing_enabled,
)
from repro.parallel import PQMatch
from repro.service import QueryService


class TestSpans:
    def test_disabled_by_default_and_shared_null_span(self):
        assert not tracing_enabled()
        assert span("a") is span("b")  # one shared no-op context manager
        with span("ignored"):
            pass
        assert get_tracer().records() == ()

    def test_disabled_span_allocates_nothing(self):
        """The disabled path every instrumented layer runs in production:
        ``with span(...)`` hands back the shared null span, and no
        per-call allocation outlives the call."""
        # Collect first, then warm up: a full collection empties the
        # interpreter's free lists, and the warm-up refills them, so only
        # blocks the loop itself keeps are counted.
        gc.collect()
        for _ in range(100):
            with span("hot.loop", tasks=1):
                pass
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with span("hot.loop", tasks=1):
                pass
        after = sys.getallocatedblocks()
        assert after - before <= 8  # no per-iteration allocation survives

    def test_nesting_parent_child(self):
        with active_tracing() as tracer:
            with span("outer", kind="test"):
                with span("inner"):
                    pass
                with span("sibling"):
                    pass
            records = tracer.records()
        by_name = {record.name: record for record in records}
        outer = by_name["outer"]
        assert outer.parent_id is None
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["sibling"].parent_id == outer.span_id
        assert {record.trace_id for record in records} == {outer.trace_id}
        assert outer.tag("kind") == "test"
        assert outer.wall >= by_name["inner"].wall >= 0.0

    def test_current_context_reflects_innermost_span(self):
        assert current_context() == TraceContext("", None, False)
        with active_tracing():
            with span("outer"):
                context = current_context()
                assert context.enabled
                assert context.parent_id is not None

    def test_adopt_collects_and_removes_block_records(self):
        with active_tracing() as tracer:
            with span("coordinator"):
                context = current_context()
            with tracer.adopt(context) as collected:
                with span("adopted"):
                    pass
            # the adopted span was removed from the local buffer (it ships
            # to the context's owner) and parented under the remote span
            assert [record.name for record in collected] == ["adopted"]
            assert collected[0].parent_id == context.parent_id
            assert all(r.name != "adopted" for r in tracer.records())
            tracer.ingest(collected)
            roots = build_span_tree(tracer.records())
            assert len(roots) == 1
            assert [child.record.name for child in roots[0].children] == ["adopted"]

    def test_adopt_disabled_context_is_inert(self):
        tracer = get_tracer()
        with tracer.adopt(TraceContext("", None, False)) as collected:
            with span("never"):
                pass
        assert collected == []
        assert not tracing_enabled()

    def test_format_tree_marks_tags_and_is_deterministic_without_times(self):
        with active_tracing() as tracer:
            with span("root", graph="g"):
                with span("leaf"):
                    pass
            rendered = format_span_tree(tracer.records(), show_times=False)
        assert rendered == "root [graph=g]\n  leaf"

    def test_active_tracing_restores_and_drains(self):
        with active_tracing():
            with span("scoped"):
                pass
        assert not tracing_enabled()
        assert get_tracer().records() == ()


@pytest.fixture(scope="module")
def traced_graph():
    return benchmark_graph("pokec", scale=0.5, seed=3)


class TestCrossProcess:
    def test_served_query_yields_one_connected_tree_with_remote_spans(
        self, traced_graph
    ):
        """ACCEPTANCE: QueryService.submit on the process backend produces a

        single span tree whose worker spans crossed the process boundary."""
        pattern = paper_pattern("Q1")
        coordinator = PQMatch(num_workers=2, d=2, executor="process")
        with active_tracing() as tracer:
            with QueryService(traced_graph, coordinator) as service:
                result = service.submit(pattern).result(timeout=120)
            records = tracer.records()
        assert not result.cached

        # one batch → one trace → one connected tree
        assert len({record.trace_id for record in records}) == 1
        roots = build_span_tree(records)
        assert len(roots) == 1
        names = {record.name for record in records}
        assert {"service.batch", "service.dispatch", "pool.round"} <= names

        # ≥1 per-fragment worker span recorded in another process and
        # shipped back across the boundary
        remote = [
            record
            for record in records
            if record.name == "worker.fragment" and record.pid != os.getpid()
        ]
        assert remote
        by_id = {record.span_id: record for record in records}
        round_span = next(r for r in records if r.name == "pool.round")
        for record in remote:
            assert by_id[record.parent_id] is round_span

        # the rendering marks the boundary crossing
        assert "(remote)" in format_span_tree(records, show_times=False)

    def test_untraced_process_round_ships_no_spans(self, traced_graph):
        """With tracing off the propagation triple is disabled and results

        carry no span payload — the piggyback is free when unused."""
        disable_tracing()
        pattern = paper_pattern("Q1")
        coordinator = PQMatch(num_workers=2, d=2, executor="process")
        with QueryService(traced_graph, coordinator) as service:
            service.evaluate(pattern)
        assert get_tracer().records() == ()
