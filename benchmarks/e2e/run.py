#!/usr/bin/env python3
"""The serving benchmark: four workloads, end to end and layer by layer.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload miss_stream --seed 11 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics) by name
with unit and sample count, then one JSON object on the last line.  Without
``--workload`` it runs all four, each in its own subprocess::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--traced] [--repeat K] [--smoke] [--out F]

Workloads, metrics and how to compare two runs: README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# (name, unit, better, bound): the end_to_end block of BENCHMARK.json.  A bound
# covers the metric's noisiest workload: 1.3 x the widest ten-run spread measured
# for it on the reference box, rounded up to 0.05 and capped at the contract's
# 0.25 (README, "Steadiness and the bounds").  The sixth figure, error_rate, is
# the contract's failed/attempted: it is printed, but it is 0 on a correct
# program, so it cannot carry a bound that is a share of its median.
END_TO_END = (
    ("throughput_qps", "ops/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)
WORKLOAD_NAMES = ("miss_stream", "zipf_hot", "fleet_longtail", "update_churn")
DEFAULT_SEED = 11
DEFAULT_SECONDS = 15
SETUP_REPEATS = 9
TRACE_DIR = HERE / "out"


def emit(name: str, value, unit: str, samples: int, note: str = "") -> None:
    shown = "null" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {shown:>14} {unit:<6} n={samples}{'  ' + note if note else ''}")


def pin_to_one_cpu(smoke: bool):
    """Keep the measured process on one CPU; returns the CPUs to give back.

    The program is one GIL-bound process whose client and dispatcher threads
    hand every request over a futex.  Spread over two cores, a hand-over
    costs a cross-core wake-up when the other core is idle and a plain
    context switch when it is busy: the same code measured 9k or 16k hits/s
    depending on what else the box was doing.  On one CPU it is always the
    context switch.  Threads started afterwards inherit the pin; the oracle's
    processes start after it is lifted.
    """
    if smoke or not hasattr(os, "sched_setaffinity"):   # smoke runs go two at a time and time nothing
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


# ------------------------------------------------------------------ checking


def verify(workload, served) -> Tuple[int, float, int]:
    """Compare every served answer with the oracle's.

    Returns ``(mismatches, non-empty share of the checked answers, oracle calls)``.
    """
    from program import oracle_answers

    items = sorted({(epoch, index) for epoch, index, _ in served})
    truth = oracle_answers(workload.graph.nodes, workload.graph.edges, workload.batches, workload.specs, items)
    mismatches = sum(1 for epoch, index, answer in served if answer != truth[(epoch, index)])
    non_empty = sum(1 for item in items if truth[item]) / max(1, len(items))
    return mismatches, non_empty, len(items)


def class_report(latencies: Sequence[float], classes: Sequence[str]) -> Tuple[List[tuple], List[str]]:
    """Latency classes by rising median with cumulative shares, and boundary problems.

    A reported percentile must not sit on a cliff between two classes (a hit
    and a miss, say): there a one-point shift in the mix moves the figure by
    orders of magnitude.  A boundary counts as a cliff when the medians on
    its two sides differ more than threefold.
    """
    by_class: Dict[str, List[float]] = {}
    for latency, cls in zip(latencies, classes):
        by_class.setdefault(cls, []).append(latency)
    rows = sorted(
        ((cls, len(values) / len(latencies), statistics.median(values)) for cls, values in by_class.items()),
        key=lambda row: row[2],
    )
    problems = []
    cumulative = 0.0
    for (cls, share, median), (next_cls, _, next_median) in zip(rows, rows[1:]):
        cumulative += share
        if next_median > 3 * median:
            for q in (50, 95):
                if abs(100 * cumulative - q) < 5:
                    problems.append(
                        f"p{q} lies within 5 points of the {cls}/{next_cls} boundary at {100 * cumulative:.1f}%"
                    )
    return rows, problems


def tier_counters(service) -> Dict[str, float]:
    """``stats_snapshot()`` of the tier; for a fleet, plus its shard services summed under ``shard_``."""
    stats = dict(service.stats_snapshot())
    for shard_service in getattr(service, "services", ()):
        for key, value in shard_service.stats_snapshot().items():
            stats[f"shard_{key}"] = stats.get(f"shard_{key}", 0) + value
    return stats


# ---------------------------------------------------------------- end to end


def run_end_to_end(workload, args) -> dict:
    problems = workload.check_pool()
    allowed = pin_to_one_cpu(args.smoke)
    # Set-ups before the window and after it: a slow spell of the host lasts
    # seconds, so it reaches one group, and the median of all is not moved.
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = []
    service = None
    try:
        for _ in range((repeats + 1) // 2):
            if service is not None:
                service.close()
            service, took = workload.set_up()
            setups.append(took)
        workload.warm_up(service)
        before = service.stats_snapshot()
        window = workload.drive(service, float(args.seconds))
        after = service.stats_snapshot()
        served = window.served + workload.final_sweep(service, window)
        service.close()
        service = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(repeats // 2):
            service, took = workload.set_up()
            setups.append(took)
            service.close()
            service = None
    finally:
        if service is not None:
            service.close()
        unpin(allowed)

    mismatches, non_empty, oracle_calls = verify(workload, served)
    completed = len(window.latencies)
    attempted = len(window.latencies) + window.raised
    failed = window.raised + mismatches
    rows, boundary_problems = class_report(window.latencies, window.classes) if completed else ([], [])
    problems += boundary_problems
    if non_empty < 0.5:
        problems.append(f"only {100 * non_empty:.0f}% of the checked answers are non-empty (< 50%)")
    detail = {"classes": {cls: {"share": share, "median_ms": 1e3 * median} for cls, share, median in rows}}
    detail["cpu_utilisation"] = window.cpu / window.elapsed
    detail["window_seconds"] = window.elapsed
    detail["setups_s"] = setups
    detail["ran_dry"] = window.ran_dry
    extra_detail, gate_problems = workload.gates(window, before, after)
    detail.update(extra_detail)
    problems += gate_problems
    metrics = {
        "throughput_qps": window.throughput,
        "latency_p50_ms": window.p50_ms,
        "latency_p95_ms": window.p95_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"{workload.name}: {workload.loop}")
    print(f"  seed={workload.seed} seconds={args.seconds} inputs_sha256={workload.inputs_sha256[:16]}...")
    samples = {"throughput_qps": completed, "latency_p50_ms": completed, "latency_p95_ms": completed,
               "setup_s": len(setups), "peak_rss_mb": 1}
    for name, unit, _, _ in END_TO_END:
        emit(name, metrics[name], unit, samples[name])
    emit("error_rate", failed / max(1, attempted), "ratio", attempted,
         f"raised={window.raised} wrong={mismatches} oracle_calls={oracle_calls} non_empty={non_empty:.2f}")
    for cls, share, median in rows:
        emit(f"class.{cls}.share", share, "ratio", int(round(share * len(window.latencies))),
             f"median {1e3 * median:.3f} ms")
    for key, value in detail.items():
        if key != "classes":
            print(f"  {key}: {json.dumps(value)}")
    if window.ran_dry:
        # Not an error: a commit this much faster is still measured, over a shorter window.
        print(f"  TRUNCATED: the stream ran dry after {window.elapsed:.1f} s of {args.seconds} s; "
              f"figures are over the shorter window")
    for problem in problems:
        print(f"  INVALID: {problem}")
    return {
        "workload": workload.name, "trace": 0, "seed": workload.seed, "seconds": args.seconds,
        "smoke": args.smoke, "inputs_sha256": workload.inputs_sha256,
        "stream": {"operations": len(window.latencies), "patterns": len(workload.specs),
                   "batches": len(workload.batches)},
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "detail": detail,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _, _ in END_TO_END},
    }


# -------------------------------------------------------------------- traced


def ratio(after: dict, before: dict, numerator: Sequence[str], denominator: Sequence[str]) -> float:
    """``sum(delta numerator keys) / sum(delta denominator keys)`` of two stats dicts; 0 when idle."""
    def delta(keys):
        return sum(after.get(key, 0) - before.get(key, 0) for key in keys)
    bottom = delta(denominator)
    return delta(numerator) / bottom if bottom else 0.0


def run_traced(workload, args) -> dict:
    """Serve the first operations of the timed stream plain, traced and plain
    again; drive the workload's concurrent view; then replay the layers."""
    import layers
    from repro.obs import trace
    from repro.plan.compile import plan_compile_count

    problems = workload.check_pool()
    ops = workload.trace_ops(float(args.seconds))
    allowed = pin_to_one_cpu(args.smoke)
    passes = {False: [], True: []}
    # Plain before and after the traced pass, which is compared with their mean:
    # a drift from pass to pass does not read as overhead.
    for traced in (False, True, False):
        service, _ = workload.set_up()
        try:
            workload.warm_up(service)
            before = tier_counters(service)
            compiles = plan_compile_count()
            if traced:
                trace.enable_tracing().drain()
            window = workload.drive(service, float("inf"), ops)
            if traced:
                records = trace.get_tracer().drain()
                trace.disable_tracing()
            passes[traced].append((window, before, tier_counters(service), plan_compile_count() - compiles))
        finally:
            service.close()
    trace.enable_tracing()
    view = workload.concurrent_view(float(args.seconds))
    view_records = trace.get_tracer().drain()
    probes = layers.Probes()
    layers.layer_replay(workload, probes, budget_seconds=max(1.0, float(args.seconds) / 2))
    bench_records = trace.get_tracer().drain()
    trace.disable_tracing()
    unpin(allowed)

    (window, before, after, compiles), = passes[True]
    plain = [window for window, _, _, _ in passes[False]]
    windows = [window] + plain + ([view] if view else [])
    mismatches, _, _ = verify(workload, [answer for each in windows for answer in each.served])
    requests = max(1, len(window.latencies))
    fleet = workload.tier == "fleet"
    shard = "shard_" if fleet else ""

    values: Dict[str, Optional[float]] = {name: probes.median(name) for name, _, _ in layers.PER_LAYER}
    counts = {name: len(probes.samples.get(name, ())) for name, _, _ in layers.PER_LAYER}

    def put(name: str, value: float, samples: int = requests) -> None:
        values[name], counts[name] = value, samples

    for key in ("verifications", "extensions", "quantifier_checks", "candidates_pruned"):
        put(f"matching.{key}", window.counters.get(key, 0))
    put("matching.answers_per_verification", window.answers / max(1, window.counters.get("verifications", 0)))
    put("plan.cache_hit_ratio", ratio(after, before, [f"{shard}plan_hits"], [f"{shard}plan_hits", f"{shard}plan_misses"]))
    put("plan.compiles", compiles)
    put("service.cache_hit_ratio", ratio(after, before, [f"{shard}cache_hits"], [f"{shard}cache_hits", f"{shard}cache_misses"]))
    put("service.memo_hit_ratio", ratio(after, before, [f"{shard}memo_hits"], [f"{shard}served"]))
    put("service.dispatch_rounds_per_request", ratio(after, before, [f"{shard}dispatch_rounds"], [f"{shard}served"]))
    put("service.dedup_ratio", ratio(after, before, [f"{shard}deduplicated"], [f"{shard}served"]))
    put("delta.cache_carried_ratio", ratio(
        after, before, [f"{shard}delta_cache_carried"], [f"{shard}delta_cache_carried", f"{shard}delta_cache_dropped"]))
    if fleet:
        put("serve.l1_hit_ratio", ratio(after, before, ["cache_hits"], ["served"]))
        put("serve.l2_hit_ratio", ratio(after, before, ["shared_hits"], ["served"]))
        put("serve.fanout_ratio", ratio(after, before, ["fanout_rounds"], ["served"]))
        put("serve.shared_degraded", after.get("shared_cache_degraded", 0) - before.get("shared_cache_degraded", 0))
        put("serve.admission_wait_ms", 1e3 * ratio(after, before, ["admission_wait_seconds_total"], ["admission_drained"]))
        put("serve.admission_high_water", after.get("admission_high_water", 0))
        put("serve.admission_rejected", after.get("admission_rejected", 0) - before.get("admission_rejected", 0))
        put("serve.inflight_dedup_ratio", ratio(after, before, ["deduplicated"], ["deduplicated", "submitted"]))
        if after["shards_skipped"] + after["shards_touched"] > before["shards_skipped"] + before["shards_touched"]:
            # The stream applied deltas: its own routing figure, not the layer replay's.
            put("serve.shards_skipped_ratio", ratio(after, before, ["shards_skipped"], ["shards_skipped", "shards_touched"]))
    else:
        # No fleet served this stream: its counters read 0, and the routing figure
        # is that of the fleet the layer replay drove.
        for name in ("serve.l1_hit_ratio", "serve.l2_hit_ratio", "serve.fanout_ratio", "serve.shared_degraded",
                     "serve.admission_wait_ms", "serve.admission_high_water", "serve.admission_rejected",
                     "serve.inflight_dedup_ratio"):
            put(name, 0.0, 0)
    # Same requests, fresh identical tiers: the CPU the traced pass spent beyond the plain ones' mean.
    plain_cpu = statistics.mean(each.cpu for each in plain)
    put("obs.tracing_overhead_pct", 100.0 * (window.cpu / max(1e-9, plain_cpu) - 1.0))
    put("obs.spans_per_request", len(records) / requests, len(records))
    for name, _, _ in layers.PER_LAYER:
        if name.split(".")[0] in ("openloop", "generator", "twoclient"):
            put(name, 0.0, 0)
    if view:
        completed = len(view.latencies)
        waits = sum(total for name, (total, _) in layers.self_times(view_records).items() if name.endswith(".wait"))
        view.extra.update({
            f"{workload.view}.throughput_qps": view.throughput,
            f"{workload.view}.latency_p50_ms": view.p50_ms,
            f"{workload.view}.latency_p95_ms": view.p95_ms,
            f"{workload.view}.queue_wait_ms": 1e3 * waits / max(1, completed),
        })
        for name, value in view.extra.items():
            put(name, value, completed)
    selfs = layers.self_times(records)
    for name in layers.PROGRAM_SPANS:
        total, count = selfs.get(name, (0.0, 0))
        put(f"span.{name}.self_ms", 1e3 * total, count)

    print(f"{workload.name} (traced): {workload.loop}")
    print(f"  seed={workload.seed} seconds={args.seconds} traced_operations={requests} "
          f"window_ms={1e3 * window.elapsed:.1f} inputs_sha256={workload.inputs_sha256[:16]}...")
    print(f"  cpu_ms plain / traced / plain: {1e3 * plain[0].cpu:.1f} / {1e3 * window.cpu:.1f} / {1e3 * plain[1].cpu:.1f}")
    for name, unit, _ in layers.PER_LAYER:
        note = "exact" if name in layers.EXACT or (not fleet and name in layers.EXACT_ON_SERVICE) else ""
        if values[name] is None:
            note = "not measured" + (f" (gone: {', '.join(probes.unavailable)})" if probes.unavailable else "")
        emit(name, values[name], unit, counts[name], note)
    bench_selfs = layers.self_times(bench_records)
    for name in sorted(bench_selfs):
        if name.startswith("bench."):
            emit(f"span.{name}.self_ms", 1e3 * bench_selfs[name][0], "ms", bench_selfs[name][1])
    # Busy spans share the window; a *.wait span is time a request sat queued, summed
    # over requests, so it is listed beside them, not among them.
    busy = sum(total for name, (total, _) in selfs.items() if not name.endswith(".wait"))
    print(f"  where the time goes (self time, share of the {1e3 * busy:.1f} ms the program's spans were busy):")
    for name, (total, count) in sorted(selfs.items(), key=lambda item: -item[1][0]):
        share = "  wait" if name.endswith(".wait") else f"{100 * total / max(busy, 1e-12):5.1f}%"
        print(f"    {name:<28} {share}  {1e3 * total:10.2f} ms  n={count}")
    raised = sum(each.raised for each in windows)
    if mismatches or raised:
        problems.append(f"{mismatches} served answers differ from the oracle, {raised} operations raised")
    for problem in problems:
        print(f"  INVALID: {problem}")
    # A view that measured badly is marked, not failed: the program's outputs were correct.
    view_problems = view.problems if view else []
    for problem in view_problems:
        print(f"  INVALID VIEW ({workload.view}.*): {problem}")

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace_{workload.name}.json"
    with open(trace_path, "w") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "spans": layers.span_rows(records) + layers.span_rows(bench_records)}, handle)
    print(f"  trace: {trace_path.relative_to(HERE.parents[1])} ({len(records) + len(bench_records)} spans)")
    return {
        "workload": workload.name, "trace": 1, "seed": workload.seed, "seconds": args.seconds,
        "smoke": args.smoke, "inputs_sha256": workload.inputs_sha256,
        "stream": {"operations": requests},
        "correct": not problems, "attempted": sum(len(each.latencies) + each.raised for each in windows),
        "failed": mismatches + raised,
        "problems": problems, "view_problems": view_problems, "unavailable": probes.unavailable,
        "self_time_ms": {name: 1e3 * total for name, (total, _) in selfs.items()},
        "samples": counts,
        # A metric this workload does not exercise, or whose probe target is gone, reports 0.
        "metrics": {name: {"value": values[name] if values[name] is not None else 0.0, "unit": unit}
                    for name, unit, _ in layers.PER_LAYER},
    }


# ---------------------------------------------------------------------- main


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOAD_NAMES)}")
    workload = WORKLOADS[args.workload](args.seed, float(args.seconds), args.smoke)
    record = run_traced(workload, args) if args.trace else run_end_to_end(workload, args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own subprocess: index caches, plan caches, compile
    counts and ru_maxrss are process-global, so nothing may carry over."""
    from concurrent.futures import ThreadPoolExecutor
    from program import scratch_dir

    jobs = [(name, trace, repeat) for repeat in range(args.repeat)
            for name in WORKLOAD_NAMES for trace in ((0, 1) if args.traced else (0,))]

    def run_job(job):
        name, trace, repeat = job
        out = Path(work) / f"{name}-{trace}-{repeat}.json"
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        return done, json.loads(out.read_text()) if out.exists() else None

    runs, failures = [], 0
    # Smoke runs check that everything works, not how fast: two at a time.
    with scratch_dir() as work, ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for done, record in pool.map(run_job, jobs):
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")    # all but the contract's JSON line
            failures += done.returncode != 0
            if record is not None:
                runs.append(record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "runs": runs}, handle, indent=1)
    print(f"{len(runs)} runs, {failures} failed" + (f", written to {args.out}" if args.out else ""))
    return 1 if failures else 0


def contract() -> dict:
    """BENCHMARK.json, built from the tables this benchmark actually uses."""
    import layers
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in layers.PER_LAYER],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help=f"one of {', '.join(WORKLOAD_NAMES)}; omitted: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="draws the workload")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced, per-layer run")
    parser.add_argument("--traced", action="store_true", help="all-workloads mode: also make the traced runs")
    parser.add_argument("--repeat", type=int, default=1, help="all-workloads mode: runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny streams: does it all still work")
    parser.add_argument("--out", help="write the full result record(s) as JSON")
    parser.add_argument("--contract", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.contract:
        print(json.dumps(contract(), indent=2))
        return 0
    if args.seconds is None:
        args.seconds = 1 if args.smoke else DEFAULT_SECONDS
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
