"""EXPLAIN / EXPLAIN ANALYZE (:mod:`repro.obs.explain`) and its feeds.

The acceptance contract: after serving traffic, ``explain(fingerprint)``
names the strategy and reason for **every** served fingerprint, with the
served-traffic averages from the always-on per-fingerprint ledger
(:class:`~repro.obs.introspect.ServiceIntrospection`); under
``analyze=True`` it reports the exact work of one run of the tier's own
QMatch configuration.
"""

from __future__ import annotations

import pytest

from fixtures import build_paper_g1, build_q2, build_q3
from repro.matching import DMatchOptions, QMatch
from repro.obs.explain import ExplainReport
from repro.parallel import PQMatch
from repro.serve import ShardedService
from repro.service import QueryService
from repro.utils.errors import ReproError


# ---------------------------------------------------------------------------
# Service-level EXPLAIN (the acceptance surface)
# ---------------------------------------------------------------------------


class TestServiceExplain:
    def test_every_served_fingerprint_is_explainable(self):
        graph = build_paper_g1()
        patterns = [build_q2(), build_q3()]
        with QueryService(graph) as service:
            for pattern in patterns:
                service.evaluate(pattern)
            for fingerprint in service.stats()["fingerprints"]:
                report = service.explain(fingerprint)
                assert isinstance(report, ExplainReport)
                assert report.fingerprint == fingerprint
                assert report.quantifiers and not report.analyzed
                assert report.traffic["queries"] >= 1
                # Plain EXPLAIN runs nothing: no work is reported.
                assert report.work is report.answers is report.strategy_label is None
                assert report.strategy in ("fixpoint", "cutset", "search")
                if report.strategy == "search":
                    assert f"strategy: search ({report.reason})" in report.render()
                else:
                    assert report.reason is None
                    assert f"strategy: {report.strategy}" in report.render()
            # Q2 is a chain; Q3's positified pattern has two person nodes
            # that are not adjacent.
            assert service.explain(build_q2()).strategy == "fixpoint"
            report = service.explain(build_q3())
            assert (report.strategy, report.reason) == ("search", "shared_label")

    def test_analyze_reports_the_served_engines_work(self):
        graph = build_paper_g1()
        pattern = build_q3()
        with QueryService(graph) as service:
            served = service.evaluate(pattern)
            report = service.explain(pattern, analyze=True)
        assert report.analyzed
        # The served miss and the ANALYZE run are the same QMatch run.
        assert report.work == served.counter.as_dict()
        assert report.answers == len(served.answer)
        assert report.strategy_label == "search (shared_label)"
        rendered = report.render()
        assert "EXPLAIN ANALYZE" in rendered
        assert "analyze: ran search (shared_label), 1 answers" in rendered
        assert "work: verifications=1, extensions=4" in rendered

    def test_analyze_follows_the_tiers_engine_options(self):
        graph = build_paper_g1()
        pattern = build_q2()
        options = DMatchOptions(use_simulation=False)
        coordinator = PQMatch(num_workers=1, engine=QMatch(options=options))
        with QueryService(graph, coordinator=coordinator) as service:
            report = service.explain(pattern, analyze=True)
        expected = QMatch(options=options).evaluate(pattern, graph)
        assert report.work == expected.counter.as_dict()
        assert (report.strategy, report.reason) == ("search", "no_simulation")
        assert report.strategy_label == "search (no_simulation)"

    def test_explain_cache_hits_keep_traffic_at_computed_grain(self):
        graph = build_paper_g1()
        pattern = build_q2()
        with QueryService(graph) as service:
            service.evaluate(pattern)
            service.evaluate(pattern)  # L1 hit: no fresh observation
            (fingerprint,) = service.stats()["fingerprints"]
            assert service.introspection.observed(fingerprint)["queries"] == 1
            assert service.explain(fingerprint).traffic["queries"] == 1

    def test_unknown_fingerprint_raises(self):
        with QueryService(build_paper_g1()) as service:
            with pytest.raises(ReproError, match="no pattern registered"):
                service.explain("deadbeef")

    def test_introspect_carries_explain_feed(self):
        graph = build_paper_g1()
        pattern = build_q2()
        with QueryService(graph) as service:
            fingerprint = service.evaluate(pattern).fingerprint
            payload = service.introspect()
        epochs = payload["fingerprints"][fingerprint]["epochs"]
        assert str(graph.version) in epochs


class TestFleetExplain:
    def test_fleet_explain_uses_version_vector_epochs(self):
        graph = build_paper_g1()
        pattern = build_q2()
        with ShardedService(graph.copy(), num_shards=2) as fleet:
            result = fleet.evaluate(pattern)
            report = fleet.explain(result.fingerprint)
            assert report.traffic["queries"] == 1
            assert report.traffic["epoch"] == fleet.version_vector.key_text()
            analyzed = fleet.explain(pattern, analyze=True)
        # ANALYZE runs on the union graph the merged answer reproduces.
        assert analyzed.analyzed and analyzed.answers == len(result.answer)
        assert analyzed.work == QMatch().evaluate(pattern, graph).counter.as_dict()
        assert analyzed.strategy_label == analyzed.strategy == "fixpoint"


# ---------------------------------------------------------------------------
# Report rendering details
# ---------------------------------------------------------------------------


class TestReportRendering:
    def test_never_computed_fingerprint_renders_gracefully(self):
        report = ExplainReport(
            fingerprint="abc123def456",
            pattern_name="toy",
            graph_name="g",
            graph_version=1,
            quantifiers=("count(follow) >= 1",),
            analyzed=False,
        )
        text = report.render()
        assert text.startswith("EXPLAIN abc123def456 (toy) on g@1")
        assert "never computed" in text and "work:" not in text
        payload = report.as_dict()
        assert payload["work"] is None and payload["strategy"] is None
