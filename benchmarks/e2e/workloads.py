"""The four serving workloads.

Each class owns its generated inputs (plain data from :mod:`inputs`), builds
its tier through the public constructor with defaults only, and drives it
through ``submit`` / ``evaluate`` / ``apply_delta``.  ``drive`` returns a
:class:`Window`: per-operation latencies and what was served (for the oracle).

Why these four, and what each is expected to show, is in README.md.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from program import materialise_delta, materialise_graph, materialise_pattern

from repro import QueryService, ShardedService, canonicalize

# The data graph is a fixture, as the paper's Pokec and YAGO2 are: every seed
# runs on social_graph(GRAPH_SEED) and `--seed` draws the *workload* (which
# thresholds, in what order, arriving when, which edges churn).  A graph per
# seed would put the partitioner's luck into every figure: DPar's replication
# factor on social_graph(1..4) is 2.58, 3.03, 2.61, 2.82, and QueryService's
# miss throughput follows it (-17% on seed 2), three times the workload's own
# seed-to-seed spread.
GRAPH_SEED = 11

# Offered rate of miss_stream's open-loop view: 0.6 x the closed-loop rate of
# QueryService on the same requests (the traced pass: the stream's first ~100,
# 30-31/s on the 2-core reference box) at the commit that added the benchmark.
# Frozen: a later commit is measured at the same rate, so it changes latency,
# not load; `--trace 1` reports the load it amounted to as openloop.utilisation.
MISS_RATE_QPS = 18.0

Served = Tuple[int, int, frozenset]    # (epoch, pattern index, answer)


@dataclass
class Window:
    """What one drive of a workload produced."""

    latencies: List[float] = field(default_factory=list)      # seconds per operation
    classes: List[str] = field(default_factory=list)          # latency class per operation
    served: List[Served] = field(default_factory=list)
    elapsed: float = 0.0               # wall seconds, first send (or due time) to last completion
    throughput: float = 0.0            # operations per second, as the workload defines it
    raised: int = 0                    # operations that raised or were refused
    counters: Dict[str, int] = field(default_factory=dict)    # summed ServiceResult.counter
    answers: int = 0                   # summed |answer| of computed results
    extra: Dict[str, float] = field(default_factory=dict)
    cpu: float = 0.0                   # process CPU seconds spent in the window
    p50_ms: float = 0.0                # latency percentiles over the window
    p95_ms: float = 0.0
    ran_dry: bool = False              # the stream ended before the deadline did
    problems: List[str] = field(default_factory=list)         # what makes a view's figures invalid

    def absorb(self, result) -> None:
        """Account one ServiceResult's work counters (computed results only)."""
        counter = result.counter
        if counter is not None:
            self.answers += len(result.answer)
            for key, value in counter.as_dict().items():
                self.counters[key] = self.counters.get(key, 0) + value


class Workload:
    """Shared shape: inputs -> tier -> warm-up -> drive."""

    name = ""
    tier = "service"                   # "service" = QueryService, "fleet" = ShardedService
    loop = ""                          # printed with the results
    why = ""                           # one line for BENCHMARK.json
    uniques = 0                        # distinct fingerprints the pool must hold

    view = ""                          # metric prefix of its concurrent view, if it has one

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.graph = inputs.social_graph(GRAPH_SEED)
        self.batches: List[dict] = []
        self.stream_digest: List[object] = []
        self.specs: List[dict] = []
        # Not in any pool family, so it never pre-fills a cache entry a stream asks for.
        self.throwaway = materialise_pattern({
            "name": "throwaway", "focus": "xo",
            "nodes": [["xo", "person"], ["c", "city"]],
            "edges": [["xo", "c", "live_in", [">=", 1, False]]],
        })

    def materialise(self) -> None:
        self.patterns = [materialise_pattern(spec) for spec in self.specs]

    @property
    def inputs_sha256(self) -> str:
        return inputs.inputs_digest(
            self.graph.nodes, self.graph.edges, self.specs, self.batches, self.stream_digest
        )

    def check_pool(self) -> List[str]:
        """Input gates that need no serving: distinct fingerprints, radius."""
        problems = []
        fingerprints = {canonicalize(pattern).fingerprint for pattern in self.patterns}
        if len(fingerprints) < self.uniques or len(fingerprints) != len(self.patterns):
            problems.append(
                f"pool has {len(fingerprints)} distinct fingerprints over {len(self.patterns)} "
                f"patterns, workload states {self.uniques}"
            )
        widest = max(pattern.radius() for pattern in self.patterns)
        if widest > 2:
            problems.append(f"pool holds a pattern of radius {widest} > 2")
        return problems

    # ------------------------------------------------------------------ tier

    def build_service(self, graph):
        return QueryService(graph)

    def build_fleet(self, graph, **kwargs):
        """The 4-shard fleet over the community partition.

        Its L2 store is sqlite *in memory*: a file-backed store commits - and
        so fsyncs - once per stored answer, and on the reference box that one
        call took 0.5 ms or 40 ms depending on what the host's disk was doing
        that minute, which moved fleet p95 from 42 to 88 ms between adjacent
        runs of the same code.  The file-backed cost is still measured, as
        the per-layer probe ``serve.shared_store_file_us``.
        """
        partition = {node: self.graph.community[node] % 4 for node, _ in self.graph.nodes}
        return ShardedService(
            graph, num_shards=4, d=2, partition=partition, shared_cache=":memory:", **kwargs
        )

    def set_up(self):
        """Plain data -> graph -> tier -> one throw-away query; returns the tier and the seconds."""
        gc.collect()
        started = perf_counter()
        graph = materialise_graph(self.graph.nodes, self.graph.edges)
        service = self.build_service(graph)
        service.evaluate(self.throwaway)
        return service, perf_counter() - started

    def warm_up(self, service) -> None:
        """Fill what a long-running deployment has already filled."""

    def drive(self, service, seconds: float, ops: Optional[int] = None) -> Window:
        """Serve the stream for *seconds*, or - the traced run - its first *ops* operations."""
        raise NotImplementedError

    def trace_ops(self, seconds: float) -> int:
        """Operations of the traced run: a fixed count, so its work counters repeat exactly."""
        raise NotImplementedError

    def concurrent_view(self, seconds: float) -> Optional[Window]:
        """The same inputs under the concurrency the timed run avoids, on a tier of its own.

        A named probe, not the workload: its figures are the per-layer metrics
        ``<view>.*`` in ``Window.extra`` and carry no bound.
        """
        return None

    def final_sweep(self, service, window: Window) -> List[Served]:
        """Answers asked after the window, for the oracle only."""
        return []

    def gates(self, window: Window, before: Dict[str, float], after: Dict[str, float]) -> Tuple[dict, List[str]]:
        """Workload-specific figures to print, and what makes this run invalid.

        *before* / *after* are the tier's ``stats_snapshot()`` around the window.
        """
        return {}, []


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample; 0 when nothing completed."""
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def _finish(window: Window, started: float, cpu_started: float, ended: float) -> None:
    window.cpu = time.process_time() - cpu_started
    window.elapsed = ended - started
    ordered = sorted(window.latencies)
    window.p50_ms, window.p95_ms = 1e3 * percentile(ordered, 0.50), 1e3 * percentile(ordered, 0.95)


def closed_loop(service, patterns, pickers, seconds: float, ops: Optional[int], hit_class: str, miss_class: str) -> Window:
    """One client thread per picker, each ``submit().result()`` back to back.

    ``pickers[k](step)`` names the pattern client k sends at its *step*-th
    request, or ``None`` when it has run out - which ends the window for every
    client, so the mix never degrades, and is reported as ``ran_dry``.  Runs
    for *seconds*, or *ops* requests per client.  Throughput is completed
    requests over the wall time from the common start to the last completion.
    """
    window = Window()
    records = [[] for _ in pickers]                # per client: (sent, latency, index, result)
    errors = [0] * len(pickers)
    barrier = threading.Barrier(len(pickers) + 1)
    deadline = [0.0]
    stop = threading.Event()

    def client(number: int) -> None:
        pick = pickers[number]
        record = records[number].append
        step = 0
        barrier.wait()
        while not stop.is_set() and (ops is None or step < ops):
            index = pick(step)
            if index is None:
                window.ran_dry = True
                stop.set()
                break
            sent = perf_counter()
            if sent >= deadline[0]:
                break
            step += 1
            try:
                result = service.submit(patterns[index]).result()
            except Exception:
                errors[number] += 1
                continue
            record((sent, perf_counter() - sent, index, result))

    threads = [threading.Thread(target=client, args=(n,), name=f"client-{n}") for n in range(len(pickers))]
    for thread in threads:
        thread.start()
    cpu_started = time.process_time()
    started = perf_counter()
    deadline[0] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    ended = perf_counter()
    window.raised = sum(errors)
    for _sent, latency, index, result in sorted(sum(records, []), key=lambda item: item[0]):   # in send order
        window.latencies.append(latency)
        window.absorb(result)
        window.classes.append(hit_class if result.cached else miss_class)
        window.served.append((0, index, result.answer))
    _finish(window, started, cpu_started, ended)
    window.throughput = len(window.latencies) / window.elapsed
    return window


# ---------------------------------------------------------------- miss_stream


class MissStream(Workload):
    name = "miss_stream"
    loop = "closed loop, 1 client submit().result(), every request a never-seen fingerprint"
    why = ("QueryService, every request a never-seen fingerprint: matching, plan and parallel do all the work, "
           "the result cache none; the compulsory-miss path ROADMAP items 2 and 5 optimise")
    view = "openloop"

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        # ~35 misses/s at the reference commit: the pool lasts four windows,
        # or the whole window of a commit four times as fast.
        self.uniques = 64 if smoke else min(inputs.MAX_POOL, max(64, int(150 * seconds)))
        self.specs = inputs.draw_pool(self.uniques)
        # The seed orders the requests inside each block of 16: every prefix still costs alike.
        rng = random.Random(f"miss-{seed}")
        for start in range(0, self.uniques, inputs.BLOCK):
            block = self.specs[start: start + inputs.BLOCK]
            rng.shuffle(block)
            self.specs[start: start + inputs.BLOCK] = block
        arrivals = self.trace_ops(seconds)
        self.due = inputs.arrival_times(random.Random(f"arrivals-{seed}"), arrivals, arrivals / MISS_RATE_QPS)
        self.stream_digest = [round(t, 9) for t in self.due]
        self.materialise()

    def trace_ops(self, seconds: float) -> int:
        return min(self.uniques, max(8, int(7 * seconds)))

    def drive(self, service, seconds: float, ops: Optional[int] = None) -> Window:
        count = len(self.patterns)
        return closed_loop(
            service, self.patterns, [lambda step: step if step < count else None], seconds, ops, "hit", "miss"
        )

    def concurrent_view(self, seconds: float) -> Window:
        """Poisson arrivals at MISS_RATE_QPS: what queueing adds to the same misses."""
        service, _ = self.set_up()
        try:
            window = self.drive_open_loop(service, self.trace_ops(seconds))
        finally:
            service.close()
        lag = window.extra["generator.lag_p99_ms"]
        if lag > 0.05 * window.p50_ms:
            window.problems.append(f"generator lag p99 {lag:.2f} ms exceeds 5% of openloop.latency_p50_ms")
        return window

    def drive_open_loop(self, service, count: int) -> Window:
        """Send pattern i at ``due[i]``, whether or not earlier ones have been answered.

        The generator sleeps to each due time and never spins: a spinning
        generator holds the GIL against the dispatcher thread and inflates
        every latency (README, "GIL-safe pacing").  On waking it submits all
        that is due, and each request is timed from its *due* time, so a late
        generator shows up as latency, not as a lighter load.
        """
        due = self.due[:count]
        patterns = self.patterns
        done = [0.0] * count
        completed = [0]
        settled = 0.010                    # two GIL switch intervals
        futures = []
        lags, idle_lags = [], []
        window = Window()

        def stamp(position: int):
            def callback(_future) -> None:
                done[position] = perf_counter()
                completed[0] += 1
            return callback

        cpu_started = time.process_time()
        origin = perf_counter() + 0.01
        position = 0
        while position < count:
            now = perf_counter() - origin
            if now < due[position]:
                time.sleep(due[position] - now)
                now = perf_counter() - origin
            while position < count and due[position] <= now:
                lags.append(now - due[position])
                # Nothing in flight, and the last answer left a while ago (the dispatcher
                # holds the GIL a few ms past it): the lateness is the generator's own.
                if completed[0] == position and max(done[:position], default=0.0) < origin + due[position] - settled:
                    idle_lags.append(now - due[position])
                future = service.submit(patterns[position])
                future.add_done_callback(stamp(position))
                futures.append(future)
                position += 1
        for position, future in enumerate(futures):
            try:
                result = future.result(timeout=120)
            except Exception:
                window.raised += 1
                continue
            window.absorb(result)
            window.latencies.append(done[position] - (origin + due[position]))
            window.classes.append("hit" if result.cached else "miss")
            window.served.append((0, position, result.answer))
        _finish(window, origin, cpu_started, max(done))
        window.throughput = (count - window.raised) / window.elapsed
        # Share of requests that arrived while an earlier one was still in the service.
        behind, latest = 0, 0.0
        for position in range(count):
            behind += latest > origin + due[position]
            latest = max(latest, done[position])
        window.extra = {
            "openloop.queued_share": behind / count,
            "openloop.utilisation": window.cpu / window.elapsed,
            "generator.lag_p99_ms": 1e3 * percentile(sorted(idle_lags), 0.99),
            "generator.lag_busy_p99_ms": 1e3 * percentile(sorted(lags), 0.99),
        }
        return window


# ------------------------------------------------------------------- zipf_hot


class ZipfHot(Workload):
    name = "zipf_hot"
    loop = "closed loop, 1 client submit().result(), Zipf(1.1) over 64 uniques"
    why = ("QueryService, Zipf(1.1) over 64 cached uniques, 12% re-spelled objects: canonicalize, memo, cache lookup "
           "and dispatcher hand-off do all the work; a matching change must not move it")
    uniques = 64
    SEGMENT = 8192                     # requests per segment
    RESPELLED = 0.12                   # share of requests that are never-seen objects

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.uniques, self.SEGMENT = 16, 1024
        self.specs = inputs.draw_pool(self.uniques)
        rng = random.Random(f"zipf-{seed}")
        self.cycle = inputs.zipf_indices(rng, self.uniques, self.SEGMENT, 1.1)
        self.respelled_slots = sorted(rng.sample(range(self.SEGMENT), int(self.RESPELLED * self.SEGMENT)))
        self.stream_digest = [self.cycle, self.respelled_slots]
        self._respell_rng = random.Random(f"respell-{seed}")
        self._respell_serial = 0
        self.materialise()

    def warm_up(self, service) -> None:
        for pattern in self.patterns:
            service.evaluate(pattern)

    def trace_ops(self, seconds: float) -> int:
        return 2 * self.SEGMENT

    def _segment(self) -> List[object]:
        """One pass over the cycle; the re-spelled slots get objects built just now.

        The service memoises canonical forms per pattern *object*, so a
        re-spelled request is only new once: each segment builds fresh ones,
        outside the timed region.
        """
        requests = [self.patterns[index] for index in self.cycle]
        for slot in self.respelled_slots:
            self._respell_serial += 1
            spec = inputs.respell(self.specs[self.cycle[slot]], self._respell_rng, f"r{self._respell_serial}")
            requests[slot] = materialise_pattern(spec)
        return requests

    def drive(self, service, seconds: float, ops: Optional[int] = None) -> Window:
        window = Window()
        respelled = set(self.respelled_slots)
        classes = ["respelled" if slot in respelled else "hit" for slot in range(self.SEGMENT)]
        submit = service.submit
        rates, medians, tails = [], [], []
        distinct = set()
        spent = 0.0
        cpu = 0.0
        segments = 0
        gc.collect()
        while spent < seconds and (ops is None or segments * self.SEGMENT < ops):
            requests = self._segment()
            latencies = []
            answers = []
            record, keep = latencies.append, answers.append
            cpu_started = time.process_time()
            started = perf_counter()
            for pattern in requests:
                sent = perf_counter()
                result = submit(pattern).result()
                record(perf_counter() - sent)
                keep(result)
            elapsed = perf_counter() - started
            cpu += time.process_time() - cpu_started
            spent += elapsed
            segments += 1
            rates.append(len(requests) / elapsed)
            window.latencies.extend(latencies)
            latencies.sort()
            medians.append(percentile(latencies, 0.50))
            tails.append(percentile(latencies, 0.95))
            # Keep each distinct (pattern, answer) once: holding every result of
            # a 300k-request window makes the collector's full passes part of
            # what the next segment measures.
            for index, result, cls in zip(self.cycle, answers, classes):
                window.absorb(result)
                window.classes.append(cls if result.cached else "miss")
                distinct.add((0, index, result.answer))
            del requests, answers
        window.served = sorted(distinct, key=lambda item: item[1])
        window.cpu = cpu
        window.elapsed = spent
        # Every figure is the median over segments: at 40 us a request, a
        # burst of preemption that slows 5% of a window moves its p95 by 40%,
        # but it does not move most segments.
        window.throughput = statistics.median(rates)
        window.p50_ms, window.p95_ms = 1e3 * statistics.median(medians), 1e3 * statistics.median(tails)
        window.extra["segments"] = segments
        return window


# ------------------------------------------------------------- fleet_longtail


class FleetLongtail(Workload):
    name = "fleet_longtail"
    tier = "fleet"
    loop = "closed loop, 1 client submit().result(), Zipf(1.0) over 96 known uniques + 13% never-seen"
    why = ("4-shard fleet, working set (96 uniques + 13% never-seen) larger than its 40-entry L1: "
           "L1 hits, sqlite L2 promotes and fan-out + merge in stationary 60/27/13 shares")
    KNOWN = 96
    L1_CAPACITY = 40                   # < KNOWN: the working set exceeds the router's cache
    FRESH = 0.13                       # share of requests that are compulsory fan-outs
    CLIENTS = 2                        # streams: the workload is the first, the two-client view both
    LAP = 4096                         # known-rank draws per client before the list repeats
    view = "twoclient"

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.KNOWN, self.L1_CAPACITY = 24, 10
        # ~33 never-seen fingerprints/s at the reference commit: enough for four times that.
        fresh_total = min(inputs.MAX_POOL - self.KNOWN, max(16, int(130 * seconds)))
        self.uniques = self.KNOWN + fresh_total
        self.specs = inputs.draw_pool(self.uniques)
        self.streams = []                  # per client: known ranks, and which slots ask something new
        for client in range(self.CLIENTS):
            rng = random.Random(f"fleet-{seed}-{client}")
            ranks = inputs.zipf_indices(rng, self.KNOWN, self.LAP, 1.0)
            # Exactly 13 never-seen requests in every 100, at seeded positions:
            # fan-outs are ~3/4 of this workload's time, so their count must not be luck.
            is_fresh = []
            for _ in range(0, self.LAP, 100):
                marks = [True] * round(100 * self.FRESH) + [False] * (100 - round(100 * self.FRESH))
                rng.shuffle(marks)
                is_fresh.extend(marks)
            self.streams.append((ranks, is_fresh[: self.LAP]))
        self.stream_digest = self.streams
        self.materialise()

    def build_service(self, graph):
        return self.build_fleet(graph, cache_capacity=self.L1_CAPACITY)

    def warm_up_order(self) -> List[int]:
        return list(range(self.KNOWN)) + [rank for ranks, _ in self.streams for rank in ranks[-300:]]

    def warm_up(self, service) -> None:
        """Every known unique has been asked before (so it is in the L2 store),
        and the L1 holds what a Zipf stream leaves in it."""
        for index in self.warm_up_order():
            service.evaluate(self.patterns[index])

    def trace_ops(self, seconds: float) -> int:
        return max(40, int(50 * seconds))

    def simulated_routes(self, requests: Sequence[int]) -> Dict[str, float]:
        """Route shares an LRU of the L1's size over an unbounded L2 gives on *requests*."""
        lru: "OrderedDict[int, None]" = OrderedDict()

        def touch(pattern: int) -> bool:
            hit = pattern in lru
            lru[pattern] = None
            lru.move_to_end(pattern)
            if len(lru) > self.L1_CAPACITY:
                lru.popitem(last=False)
            return hit

        for pattern in self.warm_up_order():
            touch(pattern)
        counts = {"l1": 0, "l2": 0, "fanout": 0}
        for pattern in requests:
            counts["l1" if touch(pattern) else "l2" if pattern < self.KNOWN else "fanout"] += 1
        return {route: count / max(1, len(requests)) for route, count in counts.items()}

    def gates(self, window: Window, before, after) -> Tuple[dict, List[str]]:
        served = max(1, after["served"] - before["served"])
        routes = {
            "l1": (after["cache_hits"] - before["cache_hits"]) / served,
            "l2": (after["shared_hits"] - before["shared_hits"]) / served,
            "fanout": (after["computed"] - before["computed"]) / served,
        }
        simulated = self.simulated_routes([index for _, index, _ in window.served])
        problems = [
            f"{route} share {share:.2f} is more than 5 points from the simulated {simulated[route]:.2f}"
            for route, share in routes.items() if abs(share - simulated[route]) > 0.05
        ]
        return {"routes": routes, "simulated_routes": simulated}, problems

    def drive(self, service, seconds: float, ops: Optional[int] = None, clients: int = 1) -> Window:
        def picker(stream, fresh):
            ranks, is_fresh = stream
            unused = iter(fresh)

            def pick(step: int) -> Optional[int]:
                slot = step % self.LAP
                return next(unused, None) if is_fresh[slot] else ranks[slot]
            return pick

        streams = self.streams[:clients]
        never_seen = range(self.KNOWN, len(self.patterns))
        pickers = [picker(stream, never_seen[k::clients]) for k, stream in enumerate(streams)]
        return closed_loop(service, self.patterns, pickers, seconds, ops, "cached", "fanout")

    def concurrent_view(self, seconds: float) -> Window:
        """Two clients (= nproc) on one dispatcher: admission waits, in-flight
        dedup, and hits queued behind the other client's fan-out."""
        service, _ = self.set_up()
        try:
            self.warm_up(service)
            before = service.stats_snapshot()
            window = self.drive(service, float("inf"), self.trace_ops(seconds) // 2, clients=self.CLIENTS)
            after = service.stats_snapshot()
        finally:
            service.close()
        deduplicated = after["deduplicated"] - before["deduplicated"]
        window.extra = {
            "twoclient.inflight_dedup_ratio":
                deduplicated / max(1, deduplicated + after["submitted"] - before["submitted"]),
        }
        return window


# --------------------------------------------------------------- update_churn


class UpdateChurn(Workload):
    name = "update_churn"
    tier = "fleet"
    loop = "closed loop, 1 client, 4 queries (Zipf(1.1) over 32 uniques) : 1 delta batch of 2 edge ops"
    why = ("4-shard fleet, 4 queries : 1 delta batch: writes beside reads - delta apply, index refresh, delta "
           "routing (half the shards skipped), cache invalidation and the fan-outs it causes")
    uniques = 32
    QUERIES_PER_DELTA = 4

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.uniques = 8
        self.specs = inputs.draw_pool(self.uniques)
        # ~8 cycles/s at the reference commit; batches for almost four times that.
        # The batches are a fixture like the graph they churn; the seed draws the
        # queries between them.  Every applied batch leaves 0.2-0.6 MB behind in
        # the fleet, how much depends on the shards it reaches, so with batches
        # per seed peak_rss_mb was 111-117 MB on one seed and 133-135 MB on another.
        self.batches = inputs.delta_batches(GRAPH_SEED, self.graph, max(8, int(30 * seconds)))
        rng = random.Random(f"churn-{seed}")
        self.queries = inputs.zipf_indices(rng, self.uniques, 4096, 1.1)
        self.stream_digest = [self.queries]
        self.deltas = [materialise_delta(batch) for batch in self.batches]
        self.materialise()

    def build_service(self, graph):
        return self.build_fleet(graph)

    def warm_up(self, service) -> None:
        for pattern in self.patterns:
            service.evaluate(pattern)

    def drive(self, service, seconds: float, ops: Optional[int] = None) -> Window:
        window = Window()
        patterns, queries, deltas = self.patterns, self.queries, self.deltas
        cycle = self.QUERIES_PER_DELTA
        results = []
        cpu_started = time.process_time()
        started = perf_counter()
        deadline = started + seconds
        epoch = 0
        step = 0
        while epoch < len(deltas) and (ops is None or epoch * (cycle + 1) < ops):
            if perf_counter() >= deadline:
                break
            for _ in range(cycle):
                index = queries[step % len(queries)]
                step += 1
                sent = perf_counter()
                try:
                    result = service.submit(patterns[index]).result()
                except Exception:
                    window.raised += 1
                    continue
                window.latencies.append(perf_counter() - sent)
                window.classes.append("hit" if result.cached else "fanout")
                results.append((epoch, index, result))
            sent = perf_counter()
            try:
                service.apply_delta(deltas[epoch])
            except Exception:
                # The batch may be half-applied, so no later answer can be checked: stop.
                window.raised += 1
                break
            window.latencies.append(perf_counter() - sent)
            window.classes.append("delta")
            epoch += 1
        ended = perf_counter()
        window.ran_dry = ops is None and epoch == len(deltas) and ended < deadline
        for served_epoch, index, result in results:
            window.absorb(result)
            window.served.append((served_epoch, index, result.answer))
        _finish(window, started, cpu_started, ended)
        window.throughput = len(window.latencies) / window.elapsed
        window.extra["epochs"] = epoch
        return window

    def trace_ops(self, seconds: float) -> int:
        return (self.QUERIES_PER_DELTA + 1) * max(3, int(1.5 * seconds))

    def final_sweep(self, service, window: Window) -> List[Served]:
        """Every unique pattern asked once more on the final graph."""
        epoch = int(window.extra["epochs"])
        return [(epoch, index, service.evaluate(pattern).answer) for index, pattern in enumerate(self.patterns)]

    def gates(self, window: Window, before, after) -> Tuple[dict, List[str]]:
        skipped = after["shards_skipped"] - before["shards_skipped"]
        touched = after["shards_touched"] - before["shards_touched"]
        ratio = skipped / max(1, skipped + touched)
        problems = [] if 0.3 <= ratio <= 0.8 else [f"serve.shards_skipped_ratio {ratio:.2f} outside 0.3-0.8"]
        return {"shards_skipped_ratio": ratio}, problems


WORKLOADS = {cls.name: cls for cls in (MissStream, ZipfHot, FleetLongtail, UpdateChurn)}
