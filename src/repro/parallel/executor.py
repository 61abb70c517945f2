"""Execution backends for the parallel coordinator.

The paper runs PQMatch on a cluster of up to 20 machines.  A reproduction
running inside a single container cannot observe 20-way wall-clock speedups,
so the coordinator supports several interchangeable backends:

* ``SerialExecutor``     — run fragment tasks one after another (baseline and
  the default for tests: fully deterministic).
* ``ThreadedExecutor``   — a :class:`concurrent.futures.ThreadPoolExecutor`;
  useful to overlap work, limited by the GIL for pure-Python matching.
* ``ProcessExecutor``    — a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`
  fed binary :class:`~repro.parallel.worker.FragmentPayload` snapshots: each
  fragment is compiled once on the coordinator, shipped to the pool once as
  flat buffers when the pool is (re)created, and decoded at most once per
  worker into a per-worker cache — re-evaluating patterns on the same
  partition ships only the pattern.  Workers never call ``GraphIndex.build``.
* ``SimulatedCluster``   — runs the tasks serially but records the *work* each
  fragment performed (verifications + extensions + quantifier checks, counted
  by the engines themselves) and models the parallel makespan as the maximum
  per-worker work.  This is how the benchmarks reproduce the *shape* of the
  paper's Figures 8(b)–(e): the speedup curves depend only on how evenly DPar
  spreads the work, which the simulation measures exactly and noiselessly.

All backends consume :class:`repro.parallel.worker.FragmentTask` objects and
return their :class:`repro.matching.result.FragmentResult` lists.
"""

from __future__ import annotations

import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.matching.result import FragmentResult
from repro.obs.trace import TraceContext, current_context, get_tracer, span
from repro.parallel.worker import (
    FragmentPayload,
    FragmentTask,
    engine_from_spec,
    engine_to_spec,
    match_fragment,
)
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.errors import PartitionError

__all__ = [
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "SimulatedCluster",
    "make_executor",
]

CacheKey = Tuple[int, int, int]  # (fragment_id, snapshot version, payload checksum)


def _run_task(task: FragmentTask) -> FragmentResult:
    """Module-level task runner so that process pools can pickle it."""
    return task.run()


# ----------------------------------------------------- pool worker machinery
#
# Module-level state *inside each pool worker process*: the payloads shipped
# by the pool initializer and the fragments decoded from them so far.  A
# fragment is decoded on the first task that touches it and reused (graph and
# compiled index both) by every later task of the same payload epoch.  When
# the coordinator applies a :class:`repro.delta.GraphDelta`, tasks arrive
# carrying a *delta chain* — (child key, parent key, pickled sub-delta,
# ownership churn) hops from a shipped payload to the current fragment state —
# and the worker replays the chain on its cached fragment: apply the batch,
# *refresh* the compiled index (never rebuild), adjust the owned set, re-key.

_WORKER_PAYLOADS: Dict[CacheKey, FragmentPayload] = {}
# cache key -> (materialised fragment graph, current owned-node set — None
# for the identity fragment, which owns its whole graph and is never chained)
_WORKER_FRAGMENTS: Dict[CacheKey, Tuple[object, Optional[Set]]] = {}

# One chain hop: (child cache key, parent cache key, pickled GraphDelta,
# owned nodes added, owned nodes removed).
ChainHop = Tuple[CacheKey, CacheKey, bytes, Tuple, Tuple]


def _pool_initializer(payloads: Sequence[FragmentPayload]) -> None:
    """Receive the fragment payloads once, at worker start-up."""
    _WORKER_PAYLOADS.clear()
    _WORKER_FRAGMENTS.clear()
    for payload in payloads:
        _WORKER_PAYLOADS[payload.cache_key] = payload


def _worker_fragment(cache_key: CacheKey, chain: Tuple[ChainHop, ...]) -> Tuple[object, Set]:
    """The cached (graph, owned) pair for *cache_key*, materialising on demand.

    A key with no cache entry is either a shipped payload (decode it) or the
    child of a chain hop (materialise the parent, apply the hop's sub-delta in
    place, refresh the cached compiled index, adjust ownership).  The parent
    entry is dropped — its graph object just mutated past that key.
    """
    entry = _WORKER_FRAGMENTS.get(cache_key)
    if entry is not None:
        return entry
    hop = next((h for h in chain if h[0] == cache_key), None)
    if hop is None:
        payload = _WORKER_PAYLOADS[cache_key]
        graph = payload.materialise()
        owned = payload.owned_nodes
        entry = (graph, None if owned is None else set(owned))
    else:
        from repro.delta.ops import apply_delta

        _child, parent_key, delta_bytes, owned_added, owned_removed = hop
        graph, owned = _worker_fragment(parent_key, chain)
        _WORKER_FRAGMENTS.pop(parent_key, None)
        delta = pickle.loads(delta_bytes)
        cached_index = graph.cached_index()
        refreshable = cached_index is not None and cached_index.version == graph.version
        apply_delta(graph, delta)
        if refreshable and delta.is_structural():
            cached_index.refreshed(delta)
        entry = (graph, (owned - set(owned_removed)) | set(owned_added))
    _WORKER_FRAGMENTS[cache_key] = entry
    return entry


def _pool_run_fragment(
    cache_key: CacheKey,
    pattern: QuantifiedGraphPattern,
    engine_spec: Tuple,
    chain: Tuple[ChainHop, ...] = (),
    trace_ctx: TraceContext = TraceContext("", None, False),
) -> Tuple[FragmentResult, int]:
    """Evaluate one pattern on one cached fragment inside a pool worker.

    Returns the fragment result, the number of ``GraphIndex.build`` calls the
    evaluation triggered in this worker — the coordinator aggregates the
    count and the regression tests assert it stays zero (decoding a snapshot
    must fully replace recompilation, and replaying a delta chain must
    *refresh* the decoded index, not recompile it).

    When the coordinator had tracing enabled, *trace_ctx* parents this
    worker's spans under the coordinator's ``pool.round`` span; the records
    ship back on ``FragmentResult.spans`` for the coordinator to ingest.
    """
    from repro.index.snapshot import build_call_count

    builds_before = build_call_count()
    with get_tracer().adopt(trace_ctx) as shipped_spans:
        graph, owned_nodes = _worker_fragment(cache_key, chain)
        engine = engine_from_spec(engine_spec)
        result = match_fragment(pattern, graph, owned_nodes, engine, cache_key[0])
    if shipped_spans:
        result.spans = tuple(shipped_spans)
    return result, build_call_count() - builds_before


class SerialExecutor:
    """Run every fragment task in the calling thread, in order."""

    name = "serial"

    def run(self, tasks: Sequence[FragmentTask]) -> List[FragmentResult]:
        return [task.run() for task in tasks]

    def shutdown(self) -> None:
        """Nothing to release; present for executor-interface parity."""


class ThreadedExecutor:
    """Run fragment tasks on a thread pool (I/O-bound friendly, GIL-bound for CPU)."""

    name = "thread"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise PartitionError("max_workers must be positive")
        self.max_workers = max_workers

    def run(self, tasks: Sequence[FragmentTask]) -> List[FragmentResult]:
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(_run_task, tasks))

    def shutdown(self) -> None:
        """The pool is per-run; present for executor-interface parity."""


class _DeltaPayloadRef:
    """A payload reachable from a shipped one by replaying a delta chain.

    Created by :meth:`ProcessExecutor.apply_delta` instead of re-serialising
    the mutated fragment: it carries the new content key (derived by folding
    the pickled sub-delta into the parent's checksum, so the coordinator and
    any observer compute it identically without touching the graph) and a
    link to its parent.  Tasks keyed on it ship the chain; only a pool
    recreation flattens it back into a real :class:`FragmentPayload`.
    """

    __slots__ = ("fragment_id", "cache_key", "base", "delta_bytes", "owned_added", "owned_removed")

    def __init__(
        self,
        fragment_id: int,
        cache_key: CacheKey,
        base: Union[FragmentPayload, "_DeltaPayloadRef"],
        delta_bytes: bytes,
        owned_added: Tuple,
        owned_removed: Tuple,
    ) -> None:
        self.fragment_id = fragment_id
        self.cache_key = cache_key
        self.base = base
        self.delta_bytes = delta_bytes
        self.owned_added = owned_added
        self.owned_removed = owned_removed

    @property
    def root(self) -> FragmentPayload:
        """The shipped payload this chain hangs off."""
        base = self.base
        while isinstance(base, _DeltaPayloadRef):
            base = base.base
        return base

    def chain_hops(self) -> Tuple:
        """The hops root→self, in replay order, as worker-side ``ChainHop``s."""
        hops = []
        node: Union[FragmentPayload, _DeltaPayloadRef] = self
        while isinstance(node, _DeltaPayloadRef):
            hops.append(
                (node.cache_key, node.base.cache_key, node.delta_bytes,
                 node.owned_added, node.owned_removed)
            )
            node = node.base
        hops.reverse()
        return tuple(hops)


class ProcessExecutor:
    """Run fragment tasks on a persistent process pool (true CPU parallelism).

    The pool and two caches persist across :meth:`run` calls:

    * a coordinator-side payload cache — each fragment graph is serialised to
      a :class:`FragmentPayload` once per ``(fragment, graph version)``, not
      once per query (the cached source graph is pinned so an ``id()`` reuse
      can never alias a dead graph's entry);
    * the pool itself, keyed by the *payload epoch* (the sorted content keys
      of the shipped **root** fragments).  While the epoch is unchanged — the
      fig-8b/c sweep loop re-evaluating patterns on one partition — tasks
      ship only ``(cache key, pattern, engine options)``; fragment buffers
      cross the boundary once, at pool creation, and each worker decodes a
      fragment at most once.  A new epoch (new partition, a graph mutated
      outside the delta protocol) recreates the pool, which is exactly the
      re-ship the staleness story requires.

    Graph *deltas* are the exception that keeps the pool alive across
    mutations: :meth:`apply_delta` re-keys the affected payloads to
    :class:`_DeltaPayloadRef` chains, and subsequent tasks carry the chain so
    workers replay the batch on their cached fragments (apply + index
    refresh) instead of receiving — or worse, recompiling — new fragments.

    ``last_worker_rebuilds`` accumulates the workers' reported
    ``GraphIndex.build`` counts; it staying at zero — including across
    delta-applied mutations — is asserted by the regression tests and the
    fig-8b/c and incremental benchmarks.
    """

    name = "process"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise PartitionError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_epoch: Optional[Tuple[CacheKey, ...]] = None
        # (fragment_id, id(graph), graph version) -> (pinned graph, payload)
        self._payloads: Dict[
            Tuple[int, int, int], Tuple[object, Union[FragmentPayload, _DeltaPayloadRef]]
        ] = {}
        self.last_worker_rebuilds = 0
        # Fragments re-keyed through apply_delta() while their pool stayed
        # alive; the incremental benchmark reads this to prove deltas shipped
        # instead of fragments.
        self.deltas_shipped = 0
        # Process pools started because the payload epoch changed (the first
        # one included); a delta-shipped mutation must leave it unchanged.
        self.pool_recreations = 0

    # ------------------------------------------------------------- payloads

    def _payload_for(self, task: FragmentTask) -> Union[FragmentPayload, _DeltaPayloadRef]:
        source = task.fragment_graph
        key = (task.fragment_id, id(source), source.version)
        entry = self._payloads.get(key)
        if entry is not None and entry[0] is source:
            return entry[1]
        payload = FragmentPayload.from_fragment(
            task.fragment_id, source, task.owned_nodes
        )
        self._payloads[key] = (source, payload)
        return payload

    # ---------------------------------------------------------------- deltas

    def apply_delta(self, updates: Sequence) -> int:
        """Re-key cached fragment payloads across an applied graph batch.

        *updates* are the :class:`repro.delta.FragmentUpdate` records of
        :func:`repro.delta.apply_delta_to_partition` — call it (via
        :meth:`repro.parallel.coordinator.PQMatch.apply_delta`) after the
        batch mutated the fragment graphs.  For every fragment whose payload
        was already serialised, the mutated state is addressed by a
        :class:`_DeltaPayloadRef` whose key is derived from the parent
        checksum and the pickled sub-delta; the next :meth:`run` ships the
        sub-delta with the task and the live pool replays it — no fragment
        re-serialisation, no pool recreation, no worker rebuild.

        Fragments never shipped are simply forgotten; they serialise fresh
        (post-delta) on their next use.  Returns the number of re-keyed
        payloads.
        """
        rekeyed = 0
        for update in updates:
            graph = update.graph
            old_key = (update.fragment_id, id(graph), update.old_version)
            entry = self._payloads.get(old_key)
            if entry is None or entry[0] is not graph:
                continue
            del self._payloads[old_key]
            if not update.refresh_ok:
                # A worker replaying this sub-delta could not refresh its
                # decoded index incrementally (e.g. node deletions) — forget
                # the payload so the fragment re-ships fresh instead of
                # making a pool worker rebuild.
                continue
            base = entry[1]
            delta_bytes = pickle.dumps(update.delta, protocol=pickle.HIGHEST_PROTOCOL)
            checksum = zlib.crc32(delta_bytes, base.cache_key[2]) & 0xFFFFFFFF
            ref = _DeltaPayloadRef(
                fragment_id=update.fragment_id,
                cache_key=(update.fragment_id, graph.version, checksum),
                base=base,
                delta_bytes=delta_bytes,
                owned_added=update.owned_added,
                owned_removed=update.owned_removed,
            )
            self._payloads[(update.fragment_id, id(graph), graph.version)] = (graph, ref)
            rekeyed += 1
        self.deltas_shipped += rekeyed
        return rekeyed

    # ------------------------------------------------------------------ run

    @property
    def pool_epoch(self) -> Optional[Tuple[CacheKey, ...]]:
        """The live pool's payload-content epoch (``None`` while cold)."""
        return self._pool_epoch

    def run(self, tasks: Sequence[FragmentTask]) -> List[FragmentResult]:
        if not tasks:
            return []
        with span("pool.round", backend=self.name, tasks=len(tasks)):
            return self._run_round(tasks)

    def _run_round(self, tasks: Sequence[FragmentTask]) -> List[FragmentResult]:
        payloads = [self._payload_for(task) for task in tasks]
        # The epoch is the *set* of shipped fragment contents: a batched run
        # (many patterns × the same fragments, as the serving layer submits)
        # must share the pool — and the shipped payloads — with single-pattern
        # runs over the same partition, so duplicate keys are collapsed.
        # Delta-chained payloads resolve to their shipped *root*: the pool
        # that holds the root fragments can serve every state reachable from
        # them by replaying chains, so a mutation never recreates it.
        epoch = tuple(sorted(
            {(p.root if isinstance(p, _DeltaPayloadRef) else p).cache_key for p in payloads}
        ))
        if self._pool is None or epoch != self._pool_epoch:
            # Cold pool (or a changed fragment set): flatten chained payloads
            # into real ones first — a fresh pool should ship current bytes,
            # not history to replay.
            for position, (payload, task) in enumerate(zip(payloads, tasks)):
                if isinstance(payload, _DeltaPayloadRef):
                    source = task.fragment_graph
                    key = (task.fragment_id, id(source), source.version)
                    entry = self._payloads.get(key)
                    if not (entry is not None and entry[0] is source
                            and isinstance(entry[1], FragmentPayload)):
                        entry = (
                            source,
                            FragmentPayload.from_fragment(
                                task.fragment_id, source, task.owned_nodes
                            ),
                        )
                        self._payloads[key] = entry
                    payloads[position] = entry[1]
            epoch = tuple(sorted({payload.cache_key for payload in payloads}))
            self.shutdown()
            live = set(epoch)
            self._payloads = {
                key: entry
                for key, entry in self._payloads.items()
                if not isinstance(entry[1], _DeltaPayloadRef)
                and entry[1].cache_key in live
            }
            unique_payloads = list(
                {payload.cache_key: payload for payload in payloads}.values()
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_pool_initializer,
                initargs=(unique_payloads,),
            )
            self._pool_epoch = epoch
            self.pool_recreations += 1
        trace_ctx = current_context()
        futures = [
            self._pool.submit(
                _pool_run_fragment,
                payload.cache_key,
                task.pattern,
                engine_to_spec(task.engine),
                payload.chain_hops() if isinstance(payload, _DeltaPayloadRef) else (),
                trace_ctx,
            )
            for payload, task in zip(payloads, tasks)
        ]
        results: List[FragmentResult] = []
        tracer = get_tracer()
        for future in futures:
            result, rebuilds = future.result()
            self.last_worker_rebuilds += rebuilds
            if result.spans:
                tracer.ingest(result.spans)
            results.append(result)
        return results

    # ------------------------------------------------------------ lifecycle

    def shutdown(self) -> None:
        """Terminate the worker pool (the payload cache survives)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_epoch = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


@dataclass
class SimulatedCluster:
    """Deterministic work-based model of an ``n``-worker cluster.

    Each fragment task is executed (serially, by the real matching code); the
    work it reports is attributed to the worker hosting that fragment.  The
    modelled parallel cost of the run is the *makespan* — the largest total
    work assigned to any worker — which the coordinator exposes alongside the
    true total work so that benchmarks can report speedup = total / makespan.
    """

    num_workers: int
    name: str = "simulated"

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise PartitionError("num_workers must be positive")

    def run(self, tasks: Sequence[FragmentTask]) -> List[FragmentResult]:
        return [task.run() for task in tasks]

    def shutdown(self) -> None:
        """Nothing to release; present for executor-interface parity."""


def make_executor(kind: str, num_workers: int):
    """Factory used by the coordinator: ``serial`` / ``thread`` / ``process`` / ``simulated``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadedExecutor(num_workers)
    if kind == "process":
        return ProcessExecutor(num_workers)
    if kind == "simulated":
        return SimulatedCluster(num_workers)
    raise PartitionError(f"unknown executor kind {kind!r}")
