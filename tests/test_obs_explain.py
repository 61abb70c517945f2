"""EXPLAIN / EXPLAIN ANALYZE (:mod:`repro.obs.explain`) and its feeds.

The acceptance contract: after serving traffic, ``explain(fingerprint)``
returns per-step estimated-vs-observed cardinalities for **every** served
fingerprint — estimates from the graph's :class:`CardinalityModel`,
observations from the always-on per-fingerprint ledger
(:class:`~repro.obs.introspect.ServiceIntrospection`) and, under
``analyze=True``, from re-running the enumeration with a per-depth probe
profile that leaves the answers byte-identical.
"""

from __future__ import annotations

import math

import pytest

from fixtures import build_paper_g1, build_q2, build_q3
from repro.graph import PropertyGraph
from repro.graph.statistics import CardinalityModel, cardinality_model
from repro.matching.generic import MatchContext
from repro.obs.explain import (
    ExplainReport,
    ExplainStep,
    estimate_steps,
    q_error,
)
from repro.patterns import PatternBuilder
from repro.serve import ShardedService
from repro.service import QueryService
from repro.utils.counters import WorkCounter
from repro.utils.errors import ReproError


def _chain_graph() -> PropertyGraph:
    """persons → city: 3 person nodes, 1 city, 3 'lives' edges."""
    graph = PropertyGraph("chain")
    for name in ("a", "b", "c"):
        graph.add_node(name, "person")
    graph.add_node("x", "city")
    for name in ("a", "b", "c"):
        graph.add_edge(name, "x", "lives")
    return graph


# ---------------------------------------------------------------------------
# q_error
# ---------------------------------------------------------------------------


class TestQError:
    def test_symmetric_and_perfect(self):
        assert q_error(10.0, 10.0) == 1.0
        assert q_error(20.0, 10.0) == q_error(10.0, 20.0) == 2.0

    def test_zero_conventions(self):
        assert q_error(0.0, 0.0) == 1.0
        assert math.isinf(q_error(0.0, 5.0))
        assert math.isinf(q_error(5.0, 0.0))


# ---------------------------------------------------------------------------
# estimate_steps against a hand-checkable model
# ---------------------------------------------------------------------------


class TestEstimateSteps:
    def test_label_fallback_then_edge_bound(self):
        model = CardinalityModel(_chain_graph())
        labels = {"p": "person", "c": "city"}
        steps = estimate_steps(
            ["p", "c"], labels, [("p", "c", "lives")], model, focus="p"
        )
        # First step has no placed neighbour: the label population.
        assert steps[0].role == "focus"
        assert steps[0].estimated == 3.0
        # Second step is bound by the edge: mean typed out-degree of person
        # = triple(person, lives, city) / count(person) = 3/3.
        assert steps[1].role == "extend"
        assert steps[1].estimated == model.expected_pool(
            "city", "lives", "person", outgoing=False
        )
        assert steps[1].cumulative == steps[0].estimated * steps[1].estimated

    def test_tightest_bound_wins(self):
        graph = _chain_graph()
        graph.add_node("y", "city")
        graph.add_edge("a", "y", "visits")
        model = CardinalityModel(graph)
        labels = {"p": "person", "q": "person", "c": "city"}
        # c is constrained by both p (lives) and q (visits): the estimate is
        # the min of the two typed pools, exactly the search's tightest bound.
        steps = estimate_steps(
            ["p", "q", "c"],
            labels,
            [("p", "c", "lives"), ("q", "c", "visits")],
            model,
        )
        lives = model.expected_pool("city", "lives", "person", outgoing=False)
        visits = model.expected_pool("city", "visits", "person", outgoing=False)
        assert steps[2].estimated == min(lives, visits)

    def test_model_memoised_per_version(self):
        graph = _chain_graph()
        first = cardinality_model(graph)
        assert cardinality_model(graph) is first
        graph.add_node("d", "person")
        assert cardinality_model(graph) is not first


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE: the probe profile and byte-identity
# ---------------------------------------------------------------------------


class TestProbeProfile:
    def test_profiled_enumeration_is_byte_identical(self):
        graph = build_paper_g1()
        pattern = build_q2()
        plain = set(map(tuple, MatchContext(pattern, graph).isomorphisms()))
        profile: dict = {}
        profiled = set(
            map(
                tuple,
                MatchContext(pattern, graph).isomorphisms(probe_profile=profile),
            )
        )
        assert profiled == plain
        assert profile and all(count > 0 for count in profile.values())

    def test_profile_counts_match_extension_counter(self):
        graph = build_paper_g1()
        pattern = build_q2()
        counter = WorkCounter()
        profile: dict = {}
        list(
            MatchContext(pattern, graph).isomorphisms(
                counter=counter, probe_profile=profile
            )
        )
        assert sum(profile.values()) == counter.extensions


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
                assert report.steps and not report.analyzed
                assert report.traffic["queries"] >= 1
                # Served traffic means estimated-vs-observed is computable
                # whenever the query searched; a fixpoint answer probes
                # nothing, so there is no volume to observe.
                assert report.strategy in ("fixpoint", "search")
                searched = report.strategy == "search"
                assert (report.observed_volume is not None) == searched
                if searched:
                    assert report.volume_q_error >= 1.0
                    assert f"strategy: search ({report.reason})" in report.render()
                else:
                    assert report.reason is None
                    assert "strategy: fixpoint" in report.render()
            # Q2 is a chain; Q3's positified pattern closes a cycle.
            assert service.explain(build_q2()).strategy == "fixpoint"
            report = service.explain(build_q3())
            assert (report.strategy, report.reason) == ("search", "cyclic")

    def test_analyze_adds_per_step_observations(self):
        graph = build_paper_g1()
        pattern = build_q2()
        with QueryService(graph) as service:
            result = service.evaluate(pattern)
            report = service.explain(pattern, analyze=True)
            assert report.analyzed
            assert all(step.observed is not None for step in report.steps)
            assert report.analyze_probes == sum(
                step.observed for step in report.steps
            )
            assert report.analyze_matches >= len(result.answer)
            rendered = report.render()
            assert "EXPLAIN ANALYZE" in rendered and "obs_probes=" in rendered
            assert "q-error" in rendered

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
            assert analyzed.analyzed
            assert all(step.observed is not None for step in analyzed.steps)


# ---------------------------------------------------------------------------
# Report rendering details
# ---------------------------------------------------------------------------


class TestReportRendering:
    def test_never_observed_fingerprint_renders_gracefully(self):
        report = ExplainReport(
            fingerprint="abc123def456",
            pattern_name="toy",
            graph_name="g",
            graph_version=1,
            quantifiers=("count(follow) >= 1",),
            steps=(
                ExplainStep(index=0, node="x0:person", role="focus",
                            estimated=3.0, cumulative=3.0),
            ),
            analyzed=False,
        )
        text = report.render()
        assert "never observed" in text
        assert report.observed_volume is None and report.volume_q_error is None
        assert report.as_dict()["estimated_volume"] == 3.0
