"""Observability figure: what the instrumentation layer costs when it is off.

The observability contract (docs/OBSERVABILITY.md) promises that a disabled
span is one attribute check that allocates nothing, cheap enough to leave
compiled into production serving.  This benchmark puts a number on
that promise by serving the same Zipf-skewed stream through three otherwise
identical ``QueryService`` arms:

* ``obs-off``  — observability compiled out as far as the knobs allow:
  ``flight_capacity=0``, tracing disabled (the floor — only the always-on
  per-fingerprint ledger records);
* ``obs-noop`` — the **default** construction: the flight recorder lives at
  its default capacity, tracing disabled.
  This is what production runs, and the arm the budget applies to;
* ``obs-on``   — tracing and the flight recorder both enabled (the fully
  instrumented ceiling, reported but not gated).

Assertions (the acceptance bar of the observability layer):

* served answers are byte-identical across all three arms, sweep after sweep;
* the default no-op arm stays within **3%** of the compiled-out floor
  (min-of-N interleaved sweeps, so a background blip on one round cannot
  fail the gate).

The enabled arm's flight recorder is dumped to
``results/FLIGHT_observability.json`` — every CI run archives a black box of
the exact stream it just served.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.datasets import workload_patterns, zipf_workload
from repro.obs import disable_tracing, enable_tracing
from repro.service import QueryService
from repro.utils import Timer

STREAM_LENGTH = 192
ZIPF_EXPONENT = 1.1
BATCH_SIZE = 16
SWEEPS = 5
NOOP_BUDGET = 1.03  # the documented "< 3% when disabled" promise

RESULTS_DIR = Path(__file__).parent / "results"

HEADERS = [
    "arm", "queries", "best_wall_seconds", "qps", "tax_vs_off",
    "flight_events", "ledger_fingerprints",
]


def _stream(graph):
    uniques = workload_patterns(graph, count=6, seed=3)
    return zipf_workload(uniques, STREAM_LENGTH, exponent=ZIPF_EXPONENT, seed=7)


def _serve(service, stream):
    answers = []
    with Timer() as timer:
        for start in range(0, len(stream), BATCH_SIZE):
            for result in service.evaluate_many(stream[start : start + BATCH_SIZE]):
                answers.append(result.answer)
    return answers, timer.elapsed


@pytest.mark.benchmark(group="observability")
def test_observability_noop_overhead(pokec_graph, record_figure):
    graph = pokec_graph
    stream = _stream(graph)

    # The three arms differ ONLY in observability configuration.
    arms = {
        "obs-off": QueryService(graph, name="obs-off", flight_capacity=0),
        "obs-noop": QueryService(graph, name="obs-noop"),
        "obs-on": QueryService(graph, name="obs-on"),
    }

    # A REPRO_OBS=1 session enables tracing globally; this bench
    # owns the toggles for the duration so the off/noop arms measure what
    # production actually runs, then restores the session state.
    session_instrumented = os.environ.get("REPRO_OBS", "").strip() not in (
        "", "0", "false"
    )
    disable_tracing()
    try:
        # Warm every arm once: caches filled, indexes built.
        # The measured sweeps below are the steady-state serving hot path.
        reference = None
        for name, service in arms.items():
            if name == "obs-on":
                enable_tracing()
            answers, _ = _serve(service, stream)
            if name == "obs-on":
                disable_tracing()
            if reference is None:
                reference = answers
            assert answers == reference, f"{name} warm answers diverge"

        # Interleaved min-of-N sweeps: each round times all three arms
        # back to back, so drift hits every arm equally and the min is
        # each arm's clean run.
        best = {name: float("inf") for name in arms}
        for _ in range(SWEEPS):
            for name, service in arms.items():
                if name == "obs-on":
                    enable_tracing()
                answers, elapsed = _serve(service, stream)
                if name == "obs-on":
                    disable_tracing()
                assert answers == reference, f"{name} answers diverge mid-sweep"
                best[name] = min(best[name], elapsed)

        RESULTS_DIR.mkdir(exist_ok=True)
        flight_dump = RESULTS_DIR / "FLIGHT_observability.json"
        arms["obs-on"].flight.dump_json(str(flight_dump))
        assert flight_dump.exists()

        rows = []
        for name, service in arms.items():
            elapsed = best[name]
            rows.append([
                name,
                len(stream),
                round(elapsed, 4),
                round(len(stream) / elapsed, 1) if elapsed else 0.0,
                round(elapsed / best["obs-off"], 3) if best["obs-off"] else 0.0,
                len(service.flight),
                len(service.introspection),
            ])

        record_figure(
            "obs_overhead",
            HEADERS,
            rows,
            title="Observability — no-op tax on the warm serving path "
                  "(min of interleaved sweeps)",
            phases={
                "stream-length": len(stream),
                "zipf-exponent": ZIPF_EXPONENT,
                "batch-size": BATCH_SIZE,
                "sweeps": SWEEPS,
                "noop-tax": round(best["obs-noop"] / best["obs-off"], 4),
                "enabled-tax": round(best["obs-on"] / best["obs-off"], 4),
            },
        )

        tax = best["obs-noop"] / best["obs-off"]
        assert tax <= NOOP_BUDGET, (
            f"default no-op observability costs {(tax - 1.0) * 100:.1f}% over "
            f"the compiled-out floor (budget {(NOOP_BUDGET - 1.0) * 100:.0f}%: "
            f"off {best['obs-off']:.4f}s vs noop {best['obs-noop']:.4f}s)"
        )
    finally:
        for service in arms.values():
            service.close()
        if session_instrumented:
            enable_tracing()
        else:
            disable_tracing()
