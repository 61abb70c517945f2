"""Per-layer attribution, measured from outside the program.

Three sources, none of which touches ``src/``:

* **probes** - the driver calls each layer's public function on the
  workload's own inputs and times it (the *layer replay*), each call inside a
  driver span ``bench.<layer>.<call>``;
* **counters** - ``stats_snapshot()`` deltas over the served window and the
  ``WorkCounter`` of every served result;
* **spans** - the spans the program already emits, drained after the traced
  window and reduced to self time per span name.

A probe whose target a later commit removed or re-shaped reports no value and
the reason; it never fails the run.  :data:`PER_LAYER` is the full metric list
(the ``per_layer`` block of BENCHMARK.json is generated from it).
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from program import materialise_delta, materialise_graph, materialise_pattern, scratch_dir

from repro import QueryService
from repro.obs import trace

# The spans src/ emits today; a later issue may add more, the table lists these.
PROGRAM_SPANS = (
    "service.submit", "service.pending.wait", "service.batch", "service.dispatch",
    "pool.round", "worker.fragment", "qmatch.evaluate", "qmatch.enumerate",
    "serve.submit", "serve.admission.wait", "serve.batch", "serve.fanout",
    "serve.delta", "serve.delta.shard", "service.delta",
    "index.build", "index.refresh", "delta.inc_qmatch",
)

# (name, unit, better).  Counts in EXACT (and, on the QueryService workloads,
# EXACT_ON_SERVICE) repeat exactly for a seed, so a work-reducing change can
# be judged on them.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("index.build_ms", "ms", "lower"),
    ("index.load_ms", "ms", "lower"),
    ("index.snapshot_bytes", "bytes", "lower"),
    ("index.refresh_ms", "ms", "lower"),
    ("index.refresh_rebuild_ratio", "ratio", "lower"),
    ("graph.simulation_ms", "ms", "lower"),
    ("matching.candidates_ms", "ms", "lower"),
    ("matching.dmatch_ms", "ms", "lower"),
    ("matching.qmatch_ms", "ms", "lower"),
    ("matching.negation_ms", "ms", "lower"),
    ("matching.verifications", "count", "lower"),
    ("matching.extensions", "count", "lower"),
    ("matching.quantifier_checks", "count", "lower"),
    ("matching.candidates_pruned", "count", "higher"),
    ("matching.answers_per_verification", "ratio", "higher"),
    ("plan.compile_ms", "ms", "lower"),
    ("plan.resolve_ms", "ms", "lower"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("plan.compiles", "count", "lower"),
    ("parallel.partition_ms", "ms", "lower"),
    ("parallel.replication_factor", "ratio", "lower"),
    ("parallel.round_ms", "ms", "lower"),
    ("parallel.overhead_ratio", "ratio", "lower"),
    ("parallel.work_skew", "ratio", "higher"),
    ("service.canonicalize_us", "us", "lower"),
    ("service.cache_lookup_us", "us", "lower"),
    ("service.evaluate_hit_us", "us", "lower"),
    ("service.submit_hit_us", "us", "lower"),
    ("service.miss_overhead_ms", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.memo_hit_ratio", "ratio", "higher"),
    ("service.dispatch_rounds_per_request", "ratio", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("serve.build_shards_ms", "ms", "lower"),
    ("serve.l1_hit_ratio", "ratio", "higher"),
    ("serve.l2_hit_ratio", "ratio", "higher"),
    ("serve.fanout_ratio", "ratio", "lower"),
    ("serve.fanout_ms", "ms", "lower"),
    ("serve.fanout_overhead_ratio", "ratio", "lower"),
    ("serve.shared_lookup_us", "us", "lower"),
    ("serve.shared_store_us", "us", "lower"),
    ("serve.shared_store_file_us", "us", "lower"),
    ("serve.shared_degraded", "count", "lower"),
    ("serve.admission_wait_ms", "ms", "lower"),
    ("serve.admission_high_water", "count", "lower"),
    ("serve.admission_rejected", "count", "lower"),
    ("serve.inflight_dedup_ratio", "ratio", "higher"),
    ("serve.delta_apply_ms", "ms", "lower"),
    ("serve.shards_skipped_ratio", "ratio", "higher"),
    ("delta.graph_apply_us", "us", "lower"),
    ("delta.service_apply_ms", "ms", "lower"),
    ("delta.fleet_to_service_ratio", "ratio", "lower"),
    ("delta.cache_carried_ratio", "ratio", "higher"),
    ("obs.tracing_overhead_pct", "%", "lower"),
    ("obs.spans_per_request", "count", "lower"),
    # The concurrent views (Workload.concurrent_view): miss_stream under Poisson
    # arrivals, fleet_longtail under two clients.  0 on the other workloads.
    ("openloop.throughput_qps", "ops/s", "higher"),
    ("openloop.latency_p50_ms", "ms", "lower"),
    ("openloop.latency_p95_ms", "ms", "lower"),
    ("openloop.queue_wait_ms", "ms", "lower"),
    ("openloop.queued_share", "ratio", "lower"),
    ("openloop.utilisation", "ratio", "lower"),
    ("generator.lag_p99_ms", "ms", "lower"),
    ("generator.lag_busy_p99_ms", "ms", "lower"),
    ("twoclient.throughput_qps", "ops/s", "higher"),
    ("twoclient.latency_p50_ms", "ms", "lower"),
    ("twoclient.latency_p95_ms", "ms", "lower"),
    ("twoclient.queue_wait_ms", "ms", "lower"),
    ("twoclient.inflight_dedup_ratio", "ratio", "higher"),
) + tuple((f"span.{name}.self_ms", "ms", "lower") for name in PROGRAM_SPANS)

EXACT = frozenset({
    "matching.verifications", "matching.quantifier_checks", "plan.compiles", "serve.shared_degraded",
})
# Exact on a QueryService only: on the fleet the shards prune and extend in an
# order that follows string hashing, and these move by a few units per process.
EXACT_ON_SERVICE = frozenset({"matching.extensions", "matching.candidates_pruned"})


class Probes:
    """Timed calls into layer functions; one sample list per metric."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.unavailable: Dict[str, str] = {}

    def time(self, metric: str, span_name: str, scale: float, call: Callable[[], object]):
        """Run *call* inside a driver span; file its duration x *scale* under *metric*.

        Returns the call's value, or ``None`` when the target is gone (the
        reason is kept and the metric reports no value).
        """
        if metric in self.unavailable:
            return None
        try:
            with trace.span(f"bench.{span_name}"):
                started = perf_counter()
                value = call()
                elapsed = perf_counter() - started
        except (ImportError, AttributeError, TypeError, NotImplementedError) as error:
            self.unavailable[metric] = f"{type(error).__name__}: {error}"
            return None
        self.samples[metric].append(elapsed * scale)
        return value

    def value(self, metric: str, value: float) -> None:
        self.samples[metric].append(float(value))

    def median(self, metric: str) -> Optional[float]:
        values = self.samples.get(metric)
        return statistics.median(values) if values else None


def _resolve(path: str):
    """``"pkg.mod:attr"`` -> the object, raising ImportError/AttributeError if gone."""
    module, _, attr = path.partition(":")
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


# What each probe calls.  Resolved by name at run time: when a later commit
# removes one, the metrics that need it report "not measured" with the reason.
TARGETS = {
    "GraphIndex": "repro.index.snapshot:GraphIndex",
    "to_bytes": "repro.index.serialize:to_bytes",
    "from_bytes": "repro.index.serialize:from_bytes",
    "refresh_call_count": "repro.delta.refresh:refresh_call_count",
    "refresh_rebuild_count": "repro.delta.refresh:refresh_rebuild_count",
    "refine_candidates": "repro.graph.simulation:refine_candidates",
    "build_candidate_index": "repro.matching.candidates:build_candidate_index",
    "dmatch": "repro.matching.dmatch:dmatch",
    "QMatch": "repro:QMatch",
    "compile_plan": "repro.plan.compile:compile_plan",
    "PQMatch": "repro:PQMatch",
    "canonicalize": "repro:canonicalize",
    "ResultCache": "repro:ResultCache",
    "build_shards": "repro:build_shards",
    "SharedResultCache": "repro:SharedResultCache",
    "apply_delta": "repro:apply_delta",
}


def layer_replay(workload, probes: Probes, budget_seconds: float) -> None:
    """Walk the workload's unique inputs down the stack, layer by layer.

    For each unique pattern: canonicalize -> cache lookup -> plan compile and
    resolve -> candidates -> simulation -> dmatch -> QMatch -> PQMatch ->
    QueryService -> ShardedService; then its delta batches through graph,
    index, service and fleet.  Stops taking new patterns once *budget_seconds*
    are spent, so a slow commit gets fewer samples, not a longer run.
    """
    nodes, edges = workload.graph.nodes, workload.graph.edges
    graph = materialise_graph(nodes, edges)
    deadline = perf_counter() + budget_seconds
    target: Dict[str, object] = {}
    for name, path in TARGETS.items():
        try:
            target[name] = _resolve(path)
        except (ImportError, AttributeError) as error:
            target[name] = None
            probes.unavailable[name] = f"{type(error).__name__}: {error}"

    def last(metric: str) -> float:
        return probes.samples[metric][-1]

    # -------------------------------------------- built once: index, partition, shards
    GraphIndex = target["GraphIndex"]
    if GraphIndex:
        for _ in range(3):
            index = probes.time("index.build_ms", "index.build", 1e3, lambda: GraphIndex.build(graph))
        if index is not None and target["to_bytes"] and target["from_bytes"]:
            blob = target["to_bytes"](index)
            probes.value("index.snapshot_bytes", len(blob))
            for _ in range(3):
                probes.time("index.load_ms", "index.from_bytes", 1e3, lambda: target["from_bytes"](blob))
    coordinator = target["PQMatch"](num_workers=4, d=2) if target["PQMatch"] else None
    if coordinator is not None:
        partition = probes.time(
            "parallel.partition_ms", "parallel.ensure_radius", 1e3, lambda: coordinator.ensure_radius(graph, 2))
        if partition is not None:
            probes.value("parallel.replication_factor", partition.replication_factor())
    if target["build_shards"]:
        owner = {node: workload.graph.community[node] % 4 for node, _ in nodes}
        probes.time("serve.build_shards_ms", "serve.build_shards", 1e3,
                    lambda: target["build_shards"](graph, 4, 2, owner))

    canonicalize = target["canonicalize"]
    cache = target["ResultCache"](1024) if target["ResultCache"] else None
    qmatch = target["QMatch"]() if target["QMatch"] else None
    service = QueryService(materialise_graph(nodes, edges))
    fleet = workload.build_fleet(materialise_graph(nodes, edges))
    scratch = scratch_dir()
    shared = on_disk = None
    try:
        if target["SharedResultCache"]:
            shared = target["SharedResultCache"](":memory:")
            on_disk = target["SharedResultCache"](f"{scratch.name}/probe.sqlite")
        # ---------------------------------------------------- per unique pattern
        for spec in workload.specs:
            if perf_counter() >= deadline:
                break
            pattern = materialise_pattern(spec)
            fingerprint = spec["name"]
            if canonicalize:
                form = probes.time("service.canonicalize_us", "service.canonicalize", 1e6,
                                   lambda: canonicalize(materialise_pattern(spec)))
                fingerprint = form.fingerprint if form is not None else fingerprint
            if cache is not None:
                cache.store(graph, fingerprint, frozenset())
                probes.time("service.cache_lookup_us", "service.cache_lookup", 1e6,
                            lambda: cache.lookup(graph, fingerprint))
            if target["compile_plan"]:
                plan = probes.time("plan.compile_ms", "plan.compile", 1e3, lambda: target["compile_plan"](pattern))
                if plan is not None:
                    probes.time("plan.resolve_ms", "plan.resolve", 1e3, lambda: plan.resolution_for(graph))
            positive = pattern.pi()
            if target["build_candidate_index"]:
                pools = probes.time("matching.candidates_ms", "matching.candidates", 1e3,
                                    lambda: target["build_candidate_index"](positive, graph))
                if pools is not None and target["refine_candidates"]:
                    probes.time("graph.simulation_ms", "graph.simulation", 1e3, lambda: target["refine_candidates"](
                        positive.stratified().graph, graph, pools.candidates))
            positive_ms = whole_ms = round_ms = None
            if target["dmatch"] and probes.time(
                    "matching.dmatch_ms", "matching.dmatch", 1e3, lambda: target["dmatch"](positive, graph)) is not None:
                positive_ms = last("matching.dmatch_ms")
            if qmatch is not None and probes.time(
                    "matching.qmatch_ms", "matching.qmatch", 1e3, lambda: qmatch.evaluate(pattern, graph)) is not None:
                whole_ms = last("matching.qmatch_ms")
            if positive_ms is not None and whole_ms is not None and not pattern.is_positive:
                probes.value("matching.negation_ms", whole_ms - positive_ms)
            if coordinator is not None:
                outcome = probes.time("parallel.round_ms", "parallel.evaluate", 1e3,
                                      lambda: coordinator.evaluate(pattern, graph))
                if outcome is not None:
                    round_ms = last("parallel.round_ms")
                    probes.value("parallel.work_skew", outcome.work_skew)
                    if whole_ms:
                        probes.value("parallel.overhead_ratio", round_ms / whole_ms)
            miss = probes.time("service.miss_ms", "service.evaluate_miss", 1e3, lambda: service.evaluate(pattern))
            if miss is not None:
                if round_ms is not None:
                    probes.value("service.miss_overhead_ms", last("service.miss_ms") - round_ms)
                probes.time("service.evaluate_hit_us", "service.evaluate_hit", 1e6, lambda: service.evaluate(pattern))
                probes.time("service.submit_hit_us", "service.submit_hit", 1e6,
                            lambda: service.submit(pattern).result())
            if probes.time("serve.fanout_ms", "serve.evaluate_miss", 1e3, lambda: fleet.evaluate(pattern)) is not None:
                if miss is not None:
                    probes.value("serve.fanout_overhead_ratio", last("serve.fanout_ms") / last("service.miss_ms"))
            if shared is not None and miss is not None:
                probes.time("serve.shared_store_us", "serve.shared_store", 1e6,
                            lambda: shared.store(fingerprint, "probe", "v0", miss.answer))
                probes.time("serve.shared_lookup_us", "serve.shared_lookup", 1e6,
                            lambda: shared.lookup(fingerprint, "probe", "v0"))
                probes.time("serve.shared_store_file_us", "serve.shared_store_file", 1e6,
                            lambda: on_disk.store(fingerprint, "probe", "v0", miss.answer))

        # ------------------------------------------------------- per delta batch
        batches = (workload.batches or inputs.delta_batches(workload.seed, workload.graph, 16))[:16]
        deltas = [materialise_delta(batch) for batch in batches]
        apply_delta = target["apply_delta"]
        if apply_delta and GraphIndex:
            copy = materialise_graph(nodes, edges)
            index = GraphIndex.for_graph(copy)
            counts = [target["refresh_call_count"], target["refresh_rebuild_count"]]
            before = [count() if count else 0 for count in counts]
            for delta in deltas:
                probes.time("delta.graph_apply_us", "delta.graph_apply", 1e6, lambda: apply_delta(copy, delta))
                index = probes.time("index.refresh_ms", "index.refreshed", 1e3, lambda: index.refreshed(delta)) or index
            if all(counts):
                calls, rebuilds = (count() - start for count, start in zip(counts, before))
                probes.value("index.refresh_rebuild_ratio", rebuilds / max(1, calls))
        skipped0, touched0 = fleet.stats.shards_skipped, fleet.stats.shards_touched
        for delta in deltas:
            single = probes.time("delta.service_apply_ms", "delta.service_apply", 1e3, lambda: service.apply_delta(delta))
            routed = probes.time("serve.delta_apply_ms", "serve.delta_apply", 1e3, lambda: fleet.apply_delta(delta))
            if single is not None and routed is not None:
                probes.value("delta.fleet_to_service_ratio", last("serve.delta_apply_ms") / last("delta.service_apply_ms"))
        skipped, touched = fleet.stats.shards_skipped - skipped0, fleet.stats.shards_touched - touched0
        probes.value("serve.shards_skipped_ratio", skipped / max(1, skipped + touched))
    finally:
        service.close()
        fleet.close()
        for store in (shared, on_disk):
            if store is not None:
                store.close()
        scratch.cleanup()
        if coordinator is not None:
            coordinator.close()


# ---------------------------------------------------------------- span reduce


def self_times(records: Sequence) -> Dict[str, Tuple[float, int]]:
    """``{span name: (summed self seconds, span count)}``.

    Self time is a span's duration minus the part of it its children cover
    (the union of the children's intervals clipped to the parent, so
    overlapping or late children are not subtracted twice).
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for record in records:
        if record.parent_id:
            children[record.parent_id].append((record.start, record.start + record.wall))
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for record in records:
        start, end = record.start, record.start + record.wall
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(record.span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[record.name][0] += max(0.0, record.wall - covered)
        totals[record.name][1] += 1
    return {name: (total, count) for name, (total, count) in totals.items()}


def span_rows(records: Sequence) -> List[dict]:
    """The trace as plain rows (name / start / end / parent / request id)."""
    return [
        {
            "name": record.name,
            "start": record.start,
            "end": record.start + record.wall,
            "span": record.span_id,
            "parent": record.parent_id,
            "request": record.trace_id,
            "tags": dict(record.tags),
        }
        for record in records
    ]
