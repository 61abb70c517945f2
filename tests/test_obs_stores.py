"""Every count is read from the object that keeps it.

There is no process-wide metrics store: each fact is counted once, by the
object doing the work — ``ResultCache.stats``, ``plan_compile_count()``,
``SharedResultCache.stats``, ``AdmissionStats``,
``RouterStats``, the ``WorkCounter`` on each result and the per-fingerprint
ledger, the ``DeltaMatchStats`` of an incremental run, the executor's pool
counters and ``CORE``.  These tests pin one store per family, read directly
or through ``QueryService.stats()``, and the span-name lint that keeps the
span names (the per-layer time store) in step with the docs and the
benchmark.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from fixtures import build_paper_g1, build_q2, build_q3
from repro.datasets import benchmark_graph, paper_pattern
from repro.delta import GraphDelta, apply_delta, inc_qmatch_delta
from repro.index import GraphIndex, build_call_count
from repro.matching import EnumMatcher, QMatch
from repro.obs import get_tracer
from repro.obs.metrics import CORE
from repro.plan import plan_compile_count
from repro.serve import (
    AdmissionConfig,
    AdmissionQueue,
    ShardedService,
    SharedResultCache,
)
from repro.service import QueryService
from repro.service.cache import ResultCache


def _small_graph():
    return benchmark_graph("pokec", scale=0.2, seed=5)


class TestMatchCounters:
    def test_service_ledger_averages_the_computed_work_counter(self):
        graph = _small_graph()
        with QueryService(graph) as service:
            result = service.evaluate(paper_pattern("Q1"))
            assert not result.cached and result.counter is not None
            observed = service.introspection.observed(result.fingerprint)
            assert observed["queries"] == 1
            assert observed["verifications_per_query"] == result.counter.verifications
            assert observed["extensions_per_query"] == result.counter.extensions
            assert (
                observed["quantifier_checks_per_query"]
                == result.counter.quantifier_checks
            )
            assert observed["answers_per_query"] == len(result.answer)

    def test_cache_hits_carry_no_counter_and_add_no_work(self):
        graph = _small_graph()
        with QueryService(graph) as service:
            first = service.evaluate(paper_pattern("Q1"))
            second = service.evaluate(paper_pattern("Q1"))
            assert second.cached and second.counter is None
            record = service.stats()["fingerprints"][first.fingerprint]
            assert (record["requests"], record["cache_hits"], record["computed"]) == (
                2,
                1,
                1,
            )
            assert record["verifications"] == first.counter.verifications

    def test_enum_counters_are_per_query_and_repeatable(self):
        graph = _small_graph()
        pattern = paper_pattern("Q1")
        first = EnumMatcher().evaluate(pattern, graph)
        second = EnumMatcher().evaluate(pattern, graph)
        assert first.counter is not second.counter
        assert first.counter.verifications == second.counter.verifications > 0

    def test_counters_count_with_tracing_off(self):
        # Q1 is answered by conditioning on the focus: it verifies nothing,
        # but checks a quantifier per focus candidate.
        result = QMatch().evaluate(paper_pattern("Q1"), _small_graph())
        assert result.counter.quantifier_checks > 0
        assert result.counter.extras == {"cutset.answered": 1}
        assert get_tracer().records() == ()


class TestIndexCounters:
    def test_each_build_counts_once_on_core(self):
        graph = _small_graph()
        index = GraphIndex.build(graph)
        assert CORE.index_builds == build_call_count() == 1
        assert index.num_nodes == graph.num_nodes
        GraphIndex.build(graph)
        assert CORE.as_dict()["index_builds"] == 2


class TestCacheStores:
    def test_result_cache_counts_hits_misses_and_insertions(self):
        graph = build_paper_g1()
        cache = ResultCache(capacity=4)
        assert cache.lookup(graph, "fp") is None
        cache.store(graph, "fp", {"x1"})
        assert cache.lookup(graph, "fp") == frozenset({"x1"})
        assert (cache.stats.hits, cache.stats.misses, cache.stats.insertions) == (
            1,
            1,
            1,
        )
        assert cache.stats.hit_rate == 0.5

    def test_result_cache_counts_capacity_evictions(self):
        graph = build_paper_g1()
        cache = ResultCache(capacity=1)
        cache.store(graph, "a", {"x1"})
        cache.store(graph, "b", {"x2"})
        assert cache.stats.evictions == 1
        assert len(cache) == 1

    def test_service_snapshot_reads_the_cache_stats(self):
        with QueryService(build_paper_g1()) as service:
            service.evaluate(build_q2())
            service.evaluate(build_q2())
            snapshot = service.stats()["cache"]
            assert (snapshot["hits"], snapshot["misses"]) == (
                service.cache.stats.hits,
                service.cache.stats.misses,
            ) == (1, 1)

    def test_serving_compiles_nothing_and_explain_compiles_once(self):
        compiles_before = plan_compile_count()
        with QueryService(build_paper_g1()) as service:
            service.evaluate(build_q2())
            service.cache.clear()
            service.evaluate(build_q2())
            assert plan_compile_count() == compiles_before
            assert not any(key.startswith("plan") for key in service.stats())
            assert not any(key.startswith("plan") for key in service.stats_snapshot())
            service.explain(build_q2())
            assert plan_compile_count() == compiles_before + 1

    def test_shared_cache_counts_hits_misses_and_stores(self, tmp_path):
        with SharedResultCache(str(tmp_path / "shared.sqlite")) as shared:
            assert shared.lookup("f" * 64, "opts", "1") is None
            assert shared.store("f" * 64, "opts", "1", {"a"})
            assert shared.lookup("f" * 64, "opts", "1") == frozenset({"a"})
            assert shared.stats.as_dict() == {
                "hits": 1,
                "misses": 1,
                "stores": 1,
                "degraded": 0,
            }


class TestServeStores:
    def test_admission_stats_count_admits_drains_and_high_water(self):
        queue = AdmissionQueue(AdmissionConfig(max_pending=4))
        for payload in "abc":
            queue.submit(payload)
        assert [payload for _, payload in queue.drain()] == ["a", "b", "c"]
        stats = queue.stats
        assert (stats.admitted, stats.drained, stats.high_water) == (3, 3, 3)
        assert stats.rejected == stats.blocked == 0
        assert stats.wait_seconds_max <= stats.wait_seconds_total

    def test_router_stats_count_served_computed_and_l1_hits(self):
        graph = build_paper_g1()
        with ShardedService(graph, num_shards=2, d=2) as fleet:
            first = fleet.evaluate(build_q3(2))
            second = fleet.evaluate(build_q3(2))
            assert first.answer == second.answer
            assert not first.cached and second.cached
            stats = fleet.stats
            assert stats.served == 2
            assert stats.computed == 1
            assert stats.batches == 2
            assert stats.fanout_rounds >= 1

    def test_pipeline_counts_one_batch_per_evaluate_many(self):
        with QueryService(build_paper_g1()) as service:
            service.evaluate_many([build_q2(), build_q3(2), build_q2()])
            assert service.stats.batches == 1
            assert service.stats.served == 3
            assert service.stats.computed == 2
            assert service.stats.deduplicated == 1


class TestDeltaAndPoolStores:
    def test_inc_qmatch_delta_returns_its_own_stats(self):
        graph = build_paper_g1()
        pattern = build_q2()
        cached = frozenset(QMatch().evaluate_answer(pattern, graph))
        delta = GraphDelta.build(attr_sets=[("x2", "age", 30)])
        inverse = apply_delta(graph, delta)
        answer, stats = inc_qmatch_delta(pattern, graph, delta, cached, inverse=inverse)
        assert answer == cached
        assert stats.verifications <= max(stats.aff_size, 1)
        assert stats.carried + stats.verifications >= len(answer)
        assert stats.added == stats.removed == set()

    def test_single_fragment_service_reports_zero_pool_counters(self):
        with QueryService(build_paper_g1()) as service:
            assert service.stats()["pool"]["fragments"] == 0
            service.evaluate(build_q2())
            pool = service.stats()["pool"]
            assert pool["fragments"] == 1
            assert pool["pool_recreations"] == 0
            assert pool["deltas_shipped"] == 0
            assert pool["worker_rebuilds"] == 0


# ---------------------------------------------------------------- span lint

_LINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_span_names.py"


@pytest.fixture
def lint(tmp_path, monkeypatch):
    """``tools/check_span_names.py`` pointed at a scratch tree under *tmp_path*."""
    spec = importlib.util.spec_from_file_location("check_span_names", _LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "src").mkdir()
    (tmp_path / "docs").mkdir()
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "SOURCE_ROOT", tmp_path / "src")
    monkeypatch.setattr(module, "DOCS_TABLE", tmp_path / "docs" / "OBSERVABILITY.md")
    monkeypatch.setattr(module, "BENCHMARK", tmp_path / "BENCHMARK.json")
    return module


def _write_tree(root, source, documented, benchmarked=()):
    (root / "src" / "layer.py").write_text(source, encoding="utf-8")
    rows = "\n".join(f"| a layer | `{name}` | `tag` |" for name in documented)
    (root / "docs" / "OBSERVABILITY.md").write_text(
        "## 10. Span namespace\n\n| emitted by | span | tags |\n| --- | --- | --- |\n"
        f"{rows}\n\n## 11. Next\n\n| a layer | `not.a.span` | — |\n",
        encoding="utf-8",
    )
    per_layer = [{"name": f"span.{name}.self_ms"} for name in benchmarked]
    (root / "BENCHMARK.json").write_text(
        json.dumps({"per_layer": per_layer}), encoding="utf-8"
    )


class TestSpanNameLint:
    def test_repository_tree_is_clean(self, capsys):
        spec = importlib.util.spec_from_file_location("check_span_names", _LINT_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main() == 0, capsys.readouterr().out

    def test_consistent_tree_passes(self, lint, tmp_path):
        _write_tree(
            tmp_path,
            'with span("match.query"):\n    pass\nSPAN_BATCH = "stub.batch"\n',
            documented=["match.query", "stub.batch"],
            benchmarked=["match.query"],
        )
        assert lint.main() == 0

    def test_misspelt_span_is_undocumented(self, lint, tmp_path, capsys):
        _write_tree(
            tmp_path,
            'with span("match.qeury"):\n    pass\n',
            documented=["match.query"],
        )
        assert lint.main() == 1
        out = capsys.readouterr().out
        assert "undocumented span 'match.qeury'" in out
        assert "src/layer.py:1" in out
        assert "documented span 'match.query' has no call site" in out

    def test_benchmarked_span_without_call_site_fails(self, lint, tmp_path, capsys):
        _write_tree(
            tmp_path,
            'record_span("index.build", 0.0)\n',
            documented=["index.build"],
            benchmarked=["index.build", "serve.fanout"],
        )
        assert lint.main() == 1
        out = capsys.readouterr().out
        assert "measures span 'serve.fanout'" in out
        assert "index.build" not in out

    def test_missing_namespace_table_fails(self, lint, tmp_path, capsys):
        _write_tree(tmp_path, 'with span("a.b"):\n    pass\n', documented=["a.b"])
        (tmp_path / "docs" / "OBSERVABILITY.md").write_text("# no table\n")
        assert lint.main() == 1
        assert "no '## 10. Span namespace' table" in capsys.readouterr().err
