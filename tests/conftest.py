"""Shared fixtures for the test suite.

The most important fixtures are ``paper_g1`` / ``paper_g2``: faithful
renderings of the two example graphs of Figure 2 of the paper, together with
the example patterns Q1–Q5.  The paper states the expected answers for these
inputs explicitly (Examples 3, 4, 6 and 7), which gives the test suite a set
of ground-truth cases that pin down the QGP semantics independently of our own
reference implementation.

The builders themselves live in :mod:`fixtures` (``tests/fixtures.py``) so
that test modules and the benchmark conftest can import them explicitly —
``from conftest import ...`` is ambiguous when several conftests exist.
"""

from __future__ import annotations

import pytest

from repro.datasets import benchmark_graph, paper_pattern, paper_rule
from repro.graph import PropertyGraph

from fixtures import (  # noqa: F401  (quantifier is re-exported for tests)
    build_paper_g1,
    build_paper_g2,
    build_q2,
    build_q3,
    build_q4,
    build_triangle,
    quantifier,
)


# --------------------------------------------------------------------------
# Paper Figure 2 graphs and patterns (see fixtures.py for the structures).
# --------------------------------------------------------------------------


@pytest.fixture
def paper_g1() -> PropertyGraph:
    return build_paper_g1()


@pytest.fixture
def pattern_q2():
    return build_q2()


@pytest.fixture
def pattern_q3():
    return build_q3(p=2)


@pytest.fixture
def paper_g2() -> PropertyGraph:
    return build_paper_g2()


@pytest.fixture
def pattern_q4():
    return build_q4(p=2)


# --------------------------------------------------------------------------
# Small shared synthetic datasets (built once per session: generation and
# matching on them is cheap but not free).
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_pokec() -> PropertyGraph:
    return benchmark_graph("pokec", scale=0.35, seed=5)


@pytest.fixture(scope="session")
def small_yago() -> PropertyGraph:
    return benchmark_graph("yago2", scale=0.5, seed=5)


@pytest.fixture(scope="session")
def small_synthetic() -> PropertyGraph:
    return benchmark_graph("synthetic", scale=0.3, seed=5)


@pytest.fixture
def dataset_q1():
    return paper_pattern("Q1")


@pytest.fixture
def dataset_q3():
    return paper_pattern("Q3", p=2)


@pytest.fixture
def dataset_rule_r1():
    return paper_rule("R1")


# --------------------------------------------------------------------------
# Miscellaneous helpers
# --------------------------------------------------------------------------


@pytest.fixture
def triangle_graph() -> PropertyGraph:
    return build_triangle()


# --------------------------------------------------------------------------
# Observability isolation: the tracer and the always-on CORE counters are
# process-wide state.  Resetting them around every test kills the
# counter-leak footgun the old module globals had — a test asserting on
# build/refresh counts can never be poisoned by an earlier test's traffic,
# and a test that enables tracing can never leave it enabled for the rest
# of the run.
# --------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _obs_isolation():
    from repro.obs import reset_observability

    reset_observability()
    yield
    reset_observability()
