"""Compiled ≡ interpreted: the byte-identity contract of the plan layer.

A :class:`~repro.plan.CompiledPlan` removes *uncounted* interpretation
overhead only, so on every (graph, pattern, options) triple the planned
evaluation must return the same answer **and** the same
:class:`~repro.utils.WorkCounter` field-for-field.  The hypothesis property here
drives that over random graphs and random quantified patterns (negated edges
and every quantifier spelling included), pinned across the engine option
combinations the rest of the suite exercises.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from test_property_based import SETTINGS, labeled_graphs, quantified_patterns

from repro.graph import PropertyGraph
from repro.matching import DMatchOptions, QMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import compile_plan
from repro.service.patterns import canonicalize

OPTION_COMBOS = [
    DMatchOptions(),
    DMatchOptions(use_simulation=False, use_potential=False),
    DMatchOptions(use_simulation=False, use_potential=False, early_exit=False,
                  use_locality=False),
]


def assert_byte_identical(pattern, graph, options, plan=None, binding=None):
    """Planned and interpreted runs must agree on answer AND work counters."""
    if plan is None:
        form = canonicalize(pattern)
        plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
        binding = form.order
    engine = QMatch(options=options)
    interpreted = engine.evaluate(pattern, graph)
    planned = engine.evaluate(pattern, graph, plan=plan, plan_binding=binding)
    assert planned.answer == interpreted.answer
    assert planned.counter.__dict__ == interpreted.counter.__dict__
    return planned


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_planned_qmatch_is_byte_identical(graph, pattern):
    form = canonicalize(pattern)
    plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
    for options in OPTION_COMBOS:
        assert_byte_identical(pattern, graph, options, plan=plan, binding=form.order)


@given(graph=labeled_graphs(), pattern=quantified_patterns())
@settings(**SETTINGS)
def test_plan_compiled_from_respelled_pattern_is_byte_identical(graph, pattern):
    # One fingerprint, two spellings: the plan compiled from the renamed
    # spelling must serve the original byte-identically through the
    # original's own canonical binding.
    respelled = pattern.relabel_nodes(
        {node: f"ren_{node}" for node in pattern.nodes()}
    )
    respelled.name = f"{pattern.name}#respelled"
    respelled_form = canonicalize(respelled)
    plan = compile_plan(
        respelled, fingerprint=respelled_form.fingerprint, form=respelled_form
    )
    form = canonicalize(pattern)
    assert form.fingerprint == respelled_form.fingerprint
    assert_byte_identical(
        pattern, graph, DMatchOptions(), plan=plan, binding=form.order
    )


def dense_graph(seed: int = 11, nodes: int = 60) -> PropertyGraph:
    rng = random.Random(seed)
    graph = PropertyGraph(f"dense-{seed}")
    for node in range(nodes):
        graph.add_node(node, "person" if rng.random() < 0.75 else "product")
    for _ in range(nodes * 6):
        source, target = rng.randrange(nodes), rng.randrange(nodes)
        if source != target:
            graph.add_edge(source, target, rng.choice(["follow", "recom"]))
    return graph


def spelled_pattern() -> QuantifiedGraphPattern:
    """One edge per quantifier spelling, plus a negated edge."""
    pattern = QuantifiedGraphPattern(name="all-spellings")
    pattern.add_node("x", "person")
    pattern.set_focus("x")
    spellings = {
        "a": CountingQuantifier.existential(),
        "b": CountingQuantifier.at_least(2),
        "c": CountingQuantifier.exactly(1),
        "d": CountingQuantifier.more_than(1),
        "e": CountingQuantifier.ratio_at_least(30.0),
        "f": CountingQuantifier.universal(),
    }
    for child, quantifier in spellings.items():
        pattern.add_node(child, "person")
        pattern.add_edge("x", child, "follow", quantifier)
    pattern.add_node("neg", "product")
    pattern.add_edge("x", "neg", "recom", CountingQuantifier.negation())
    pattern.validate()
    return pattern


def test_all_quantifier_spellings_byte_identical_on_dense_graph():
    graph = dense_graph()
    pattern = spelled_pattern()
    for options in OPTION_COMBOS:
        result = assert_byte_identical(pattern, graph, options)
    # The pattern must actually exercise the lowered checks.
    assert result.counter.quantifier_checks > 0


def test_ratio_exactly_spelling_byte_identical():
    graph = dense_graph(seed=23)
    pattern = QuantifiedGraphPattern(name="ratio-exact")
    pattern.add_node("x", "person")
    pattern.add_node("y", "person")
    pattern.set_focus("x")
    pattern.add_edge("x", "y", "follow", CountingQuantifier.ratio_exactly(50.0))
    for options in OPTION_COMBOS:
        assert_byte_identical(pattern, graph, options)


def test_plan_survives_graph_mutation():
    # A version bump invalidates the resolution, not the program: the same
    # plan object must serve the mutated graph byte-identically.
    graph = dense_graph(seed=5, nodes=30)
    pattern = spelled_pattern()
    form = canonicalize(pattern)
    plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
    assert_byte_identical(pattern, graph, DMatchOptions(), plan=plan,
                          binding=form.order)
    first_resolution = plan.resolution_for(graph)
    graph.add_edge(0, 1, "follow")
    graph.add_edge(1, 0, "recom")
    assert_byte_identical(pattern, graph, DMatchOptions(), plan=plan,
                          binding=form.order)
    assert plan.resolution_for(graph) is not first_resolution
