"""Plans figure: interpreted vs compiled-plan execution on a Zipf query stream.

The serving layer canonicalizes every request to a fingerprint, so a skewed
stream keeps presenting the *same* queries — and the plan layer
(:mod:`repro.plan`) compiles each fingerprint once into a straight-line
program: lowered quantifier checks, pre-resolved row stores, per-epoch
neighbourhood tables.  This benchmark measures what that buys end to end by
serving one stream three ways through :class:`~repro.service.QueryService`:

* ``interpreted``    — ``use_plans=False``: every request re-interprets the
  pattern (quantifier dispatch, label encoding, per-candidate setup);
* ``compiled-cold``  — a fresh plan cache: the sweep pays every compile;
* ``compiled-warm``  — the same service again: pure plan-cache hits.

The result cache is cleared after every request, so **all** arms compute all
requests — the figure isolates the matching-layer effect of plans from the
answer cache (which ``BENCH_serving`` already measures).

The engine runs the verification-bound configuration
(``use_simulation=False, use_potential=False, use_locality=True``): candidate
pools are label-wide and every focus candidate pays the locality sweep, which
is precisely the per-query interpretation overhead plans remove (flattened
neighbour tables, memoised pattern adjacency, lowered checks).  Answers are
byte-identical across arms by the plan layer's contract.

Assertions (the acceptance bar of the plan layer):

* every arm returns byte-identical answers, request by request;
* ``compiled-warm`` clears **≥ 1.3×** the interpreted throughput;
* each unique fingerprint compiles at most once: the cold sweep's
  process-wide compile delta is bounded by the unique-pattern count and the
  warm sweep compiles **zero** plans while still hitting the plan cache;
* the measured warm sweep triggers zero ``GraphIndex.build`` calls.
"""

from __future__ import annotations

import pytest

from repro.datasets import zipf_workload
from repro.index.snapshot import build_call_count
from repro.matching import DMatchOptions, QMatch
from repro.parallel import PQMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import plan_compile_count
from repro.service import QueryService
from repro.utils import Timer


STREAM_LENGTH = 48
ZIPF_EXPONENT = 1.1
SPEEDUP_FLOOR = 1.3

HEADERS = [
    "engine", "queries", "wall_seconds", "qps", "speedup_vs_interpreted",
    "plan_hits", "plan_misses", "plan_compiles",
]

ENGINE_OPTIONS = DMatchOptions(
    use_simulation=False, use_potential=False, use_locality=True
)


def _star(name, focus, edges):
    """A star-ish quantified pattern from ``(s, t, label, quantifier)`` rows."""
    pattern = QuantifiedGraphPattern(name=name)
    added = set()
    for source, target, label, quantifier, source_label, target_label in edges:
        for node, node_label in ((source, source_label), (target, target_label)):
            if node not in added:
                pattern.add_node(node, node_label)
                added.add(node)
        pattern.add_edge(source, target, label, quantifier)
    pattern.set_focus(focus)
    return pattern


def _unique_patterns():
    """Quantifier-heavy uniques over the Pokec vocabulary.

    Counting (``>=``/``=``) and ratio quantifiers over ``follow`` /
    ``is_friend`` / ``like`` / ``recom`` — the shapes whose verification loop
    the plan lowers (threshold closures, degree-row probes).
    """
    quantifier = CountingQuantifier
    return [
        _star("P0-follow", "x", [
            ("x", "y", "follow", quantifier.at_least(2), "person", "person"),
        ]),
        _star("P1-follow-recom", "x", [
            ("x", "y", "follow", quantifier.at_least(2), "person", "person"),
            ("y", "p", "recom", quantifier.ratio_at_least(30.0), "person", "product"),
        ]),
        _star("P2-friend-exact", "x", [
            ("x", "y", "follow", quantifier.at_least(2), "person", "person"),
            ("x", "z", "is_friend", quantifier.exactly(1), "person", "person"),
            ("y", "p", "recom", quantifier.existential(), "person", "product"),
        ]),
        _star("P3-friend-like", "x", [
            ("x", "y", "is_friend", quantifier.at_least(1), "person", "person"),
            ("y", "p", "like", quantifier.ratio_at_least(20.0), "person", "product"),
        ]),
    ]


def _respelled(pattern, tag):
    renamed = pattern.relabel_nodes({node: f"{tag}_{node}" for node in pattern.nodes()})
    renamed.name = f"{pattern.name}#respelled"
    return renamed


def _request_stream(uniques):
    """Zipf-skewed stream with every third request re-spelled (same plans)."""
    stream = zipf_workload(uniques, STREAM_LENGTH, exponent=ZIPF_EXPONENT, seed=7)
    respelled = {id(pattern): _respelled(pattern, "ren") for pattern in uniques}
    return [
        respelled[id(pattern)] if position % 3 == 2 else pattern
        for position, pattern in enumerate(stream)
    ]


def _make_service(graph, uniques, use_plans, name):
    service = QueryService(
        graph,
        PQMatch(num_workers=1, d=2, engine=QMatch(options=ENGINE_OPTIONS)),
        name=name,
        use_plans=use_plans,
    )
    service.coordinator.ensure_radius(graph, max(p.radius() for p in uniques))
    service.evaluate(uniques[0])  # warm partition/fragments/indexes
    service.cache.clear()
    return service


def _sweep(service, stream):
    """Serve the stream with the answer cache defeated: every request computes."""
    answers = []
    with Timer() as timer:
        for pattern in stream:
            answers.append(service.evaluate(pattern).answer)
            service.cache.clear()
    return answers, timer.elapsed


def _row(name, service, elapsed, interpreted_elapsed, queries):
    stats = service.plans.stats
    return [
        name,
        queries,
        round(elapsed, 4),
        round(queries / elapsed, 1) if elapsed else 0.0,
        round(interpreted_elapsed / elapsed, 2) if elapsed else 0.0,
        stats.hits,
        stats.misses,
        stats.compiles,
    ]


@pytest.mark.benchmark(group="plans")
def test_plans_zipf_stream(benchmark, pokec_graph, record_figure):
    graph = pokec_graph
    uniques = _unique_patterns()
    stream = _request_stream(uniques)

    # ------------------------------------------------------ interpreted arm
    interpreted = _make_service(graph, uniques, False, "plans-interpreted")
    interpreted_answers, interpreted_elapsed = _sweep(interpreted, stream)
    assert interpreted.plans.stats.as_dict() == {
        "hits": 0, "misses": 0, "compiles": 0, "evictions": 0,
    }

    # ---------------------------------------------------- compiled-cold arm
    compiles_before = plan_compile_count()
    compiled = _make_service(graph, uniques, True, "plans-compiled")
    cold_answers, cold_elapsed = _sweep(compiled, stream)
    cold_compiles = plan_compile_count() - compiles_before
    cold_stats = compiled.plans.stats.as_dict()
    # Each unique fingerprint compiles at most once per process — respelled
    # requests and repeats all land on the same program.
    assert 0 < cold_compiles <= len(uniques)
    assert cold_stats["compiles"] == len(uniques)

    # ---------------------------------------------------- compiled-warm arm
    builds_before = build_call_count()
    warm_compiles_before = plan_compile_count()
    warm_hits_before = compiled.plans.stats.hits
    (warm_answers, warm_elapsed) = benchmark.pedantic(
        _sweep, args=(compiled, stream), rounds=1, iterations=1
    )
    # The measured sweep runs on warm plans over warm indexes: zero compiles,
    # zero snapshot rebuilds, plan-cache hits only.
    assert plan_compile_count() == warm_compiles_before
    assert build_call_count() == builds_before
    assert compiled.plans.stats.hits > warm_hits_before

    # Byte-identical answers, request by request, across all three arms.
    assert interpreted_answers == cold_answers == warm_answers

    rows = [
        ["interpreted", len(stream), round(interpreted_elapsed, 4),
         round(len(stream) / interpreted_elapsed, 1) if interpreted_elapsed else 0.0,
         1.0, 0, 0, 0],
        ["compiled-cold", len(stream), round(cold_elapsed, 4),
         round(len(stream) / cold_elapsed, 1) if cold_elapsed else 0.0,
         round(interpreted_elapsed / cold_elapsed, 2) if cold_elapsed else 0.0,
         cold_stats["hits"], cold_stats["misses"], cold_stats["compiles"]],
        _row("compiled-warm", compiled, warm_elapsed, interpreted_elapsed,
             len(stream)),
    ]

    phases = {
        "stream-length": len(stream),
        "unique-patterns": len(uniques),
        "zipf-exponent": ZIPF_EXPONENT,
        "cold-sweep-compiles": cold_compiles,
        "interpreted-seconds-per-query": round(interpreted_elapsed / len(stream), 6),
        "warm-seconds-per-query": round(warm_elapsed / len(stream), 6),
        "compile-seconds-total": round(
            sum(
                info["compile_seconds"]
                for info in compiled.plans.describe()["programs"].values()
            ),
            6,
        ),
    }

    record_figure(
        "plans",
        HEADERS,
        rows,
        title="Plans — interpreted vs compiled straight-line execution (Zipf stream)",
        phases=phases,
    )

    speedup = interpreted_elapsed / warm_elapsed if warm_elapsed else float("inf")
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled-warm speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(interpreted {interpreted_elapsed:.3f}s vs warm {warm_elapsed:.3f}s)"
    )
