"""PQMatch: the parallel quantified-matching coordinator (paper Section 5).

The coordinator implements the algorithm of Figure 6:

1. **Pre-processing** — partition the graph once with DPar into a d-hop
   preserving, balanced partition.  The same partition serves every QGP whose
   radius is at most ``d``; a query with a larger radius triggers the
   incremental partition extension instead of a re-partition.  With one
   worker there is nobody to partition *for*: the single fragment is the
   graph itself (:class:`~repro.parallel.partition.IdentityPartition`), built
   at no cost — which is what the serving tiers run on by default.
2. **Posting** — ship the pattern to every worker; each worker evaluates it
   locally on its fragment (``mQMatch``), restricted to the focus candidates
   it *owns*, so partial answers neither overlap nor miss matches
   (Lemma 9(1)).
3. **Assembly** — union the partial answers at the coordinator.

Besides the paper's PQMatch, the factory functions at the bottom build the
experiment baselines: ``PQMatchS`` (single "thread" per worker, i.e. no
intra-fragment parallelism), ``PQMatchN`` (no incremental handling of negated
edges inside the workers) and ``PEnum`` (workers run the enumerate-then-verify
baseline).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set

from repro.graph.digraph import PropertyGraph
from repro.matching.dmatch import DMatchOptions
from repro.matching.enumerate import EnumMatcher
from repro.matching.qmatch import QMatch
from repro.matching.result import FragmentResult, MatchResult, ParallelMatchResult
from repro.parallel.executor import make_executor
from repro.obs.trace import span
from repro.parallel.partition import DPar, HopPreservingPartition, IdentityPartition
from repro.parallel.worker import FragmentTask, match_fragment, mqmatch_fragment
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.errors import PartitionError
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer

__all__ = [
    "PQMatch",
    "pqmatch_engine",
    "pqmatch_s_engine",
    "pqmatch_n_engine",
    "penum_engine",
]

NodeId = Hashable


class _EnumFragmentEngine:
    """Adapter so the Enum baseline can be used as a per-fragment engine."""

    name = "Enum"

    def __init__(self) -> None:
        self._matcher = EnumMatcher()

    def evaluate(
        self,
        pattern: QuantifiedGraphPattern,
        graph: PropertyGraph,
        focus_restriction: Optional[Set[NodeId]] = None,
    ) -> MatchResult:
        result = self._matcher.evaluate(pattern, graph)
        if focus_restriction is not None:
            result.answer &= set(focus_restriction)
        return result


class PQMatch:
    """Parallel quantified matching over a d-hop preserving partition.

    Parameters
    ----------
    num_workers:
        The number of fragments / workers ``n``.  ``n >= 2`` is the paper's
        algorithm: DPar builds ``n`` d-hop preserving fragments and each
        worker verifies the focus candidates it owns.  ``n = 1`` evaluates on
        the graph itself, in place — the *identity* partition: no fragment
        copy, no second compiled index, no d-hop BFS, no focus restriction,
        every radius preserved — so one worker costs exactly what the
        wrapped sequential engine costs (answers and work counters equal
        ``engine.evaluate(pattern, graph)``).
    d:
        Hop radius preserved by the partition (defaults to 2, the radius of
        99% of real-world queries according to the paper).
    executor:
        One of ``"serial"``, ``"thread"``, ``"process"``, ``"simulated"``.
    engine:
        The per-fragment sequential engine; defaults to the full QMatch.
    threads:
        Intra-fragment parallelism ``b`` of mQMatch (1 disables it).
    strategy:
        Base partition strategy handed to :class:`DPar` (``"random"``,
        ``"bfs"`` or the degree-array-driven ``"degree"``).
    """

    def __init__(
        self,
        num_workers: int = 4,
        d: int = 2,
        executor: str = "serial",
        engine: Optional[object] = None,
        threads: int = 1,
        capacity_factor: float = 1.6,
        seed: SeedLike = 0,
        name: Optional[str] = None,
        strategy: str = "random",
    ) -> None:
        if num_workers <= 0:
            raise PartitionError("num_workers must be positive")
        self.num_workers = num_workers
        self.d = d
        self.executor_kind = executor
        self.engine = engine if engine is not None else QMatch()
        self.threads = max(1, threads)
        self.partitioner = DPar(
            d=d, capacity_factor=capacity_factor, seed=seed, strategy=strategy
        )
        self.name = name or f"PQMatch(n={num_workers})"
        self._partition: Optional[HopPreservingPartition] = None
        self._partition_graph_id: Optional[int] = None
        self._partition_version: Optional[int] = None
        self._executor = None

    # -------------------------------------------------------------- executor

    @property
    def executor(self):
        """The backend running fragment tasks, created once and kept.

        Persistence matters for the ``"process"`` backend: its worker pool
        and per-worker decoded-snapshot caches live exactly as long as the
        executor, so re-evaluating patterns on the same partition ships each
        fragment once instead of once per query.  Call :meth:`close` (or use
        the coordinator as a context manager) to release pool processes.
        """
        if self._executor is None:
            self._executor = make_executor(self.executor_kind, self.num_workers)
        return self._executor

    @property
    def current_executor(self):
        """The executor if one exists, else ``None`` — never creates one.

        Telemetry readers (e.g. the serving layer's ``worker_rebuilds``)
        use this so that inspecting a coordinator cannot lazily spin up —
        or, after :meth:`close`, resurrect — a worker pool.
        """
        return self._executor

    def close(self) -> None:
        """Shut down the executor backend (worker pools, payload caches)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "PQMatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- partition

    def partition(self, graph: PropertyGraph, force: bool = False) -> HopPreservingPartition:
        """Partition *graph* (cached: reused for subsequent queries on the same graph).

        The cache keys on the graph's mutation counter as well as its
        identity: a structural mutation invalidates the partition (its
        fragment graphs describe the old structure), triggers a re-partition,
        and — through the fresh fragment payload checksums — makes the
        process executor re-ship the fragments.
        """
        if (
            force
            or self._partition is None
            or self._partition_graph_id != id(graph)
            or self._partition_version != graph.version
        ):
            if self.num_workers == 1:
                self._partition = IdentityPartition(graph)
            else:
                with span("parallel.partition", workers=self.num_workers) as build:
                    self._partition = self.partitioner.partition(graph, self.num_workers)
                    build.annotate(
                        fragments=self._partition.num_fragments,
                        replication=self._partition.replication_factor(),
                    )
            self._partition_graph_id = id(graph)
            self._partition_version = graph.version
        return self._partition

    @property
    def current_partition(self) -> Optional[HopPreservingPartition]:
        """The cached partition if one exists, else ``None`` — never builds one."""
        return self._partition

    def ensure_radius(self, graph: PropertyGraph, radius: int) -> HopPreservingPartition:
        """Make sure the cached partition preserves at least *radius* hops."""
        partition = self.partition(graph)
        if radius > partition.d:
            partition = self.partitioner.extend(partition, radius)
            self._partition = partition
        return partition

    def apply_delta(self, graph: PropertyGraph, delta, inverse=None) -> List:
        """Propagate an applied :class:`~repro.delta.GraphDelta` into the
        cached partition and the live executor.

        Call **after** ``repro.delta.apply_delta(graph, delta)`` mutated the
        graph (*inverse* is that call's return value).  The cached partition
        is maintained in place — ownership churn, halo growth, per-fragment
        sub-deltas applied to materialised fragment graphs with their compiled
        indexes *refreshed* — and the partition cache is re-stamped to the
        post-delta version, so the next query neither re-partitions nor (on
        the process backend, whose payloads are re-keyed to delta chains)
        re-ships or recreates the pool.

        A partition that is missing, bound to another graph, or more than
        this one batch behind is simply dropped: the next query rebuilds it
        from scratch, which is always correct.  Returns the per-fragment
        :class:`~repro.delta.FragmentUpdate` list (empty when nothing was
        maintained).

        The identity partition (``num_workers=1``) has nothing to maintain —
        its fragment graph *is* the graph the caller just mutated, so
        replaying a sub-delta on it would apply the batch twice.  It returns
        no updates; :meth:`partition` re-stamps it for the new version in
        O(1), and a process pool re-ships the graph on its next round (a
        fresh payload key), never rebuilding in a worker.
        """
        if not delta.is_structural() or self.num_workers == 1:
            return []
        if (
            self._partition is None
            or self._partition_graph_id != id(graph)
            or self._partition_version != graph.version - 1
        ):
            self._partition = None
            self._partition_graph_id = None
            self._partition_version = None
            return []
        from repro.delta.partition import apply_delta_to_partition
        from repro.index.snapshot import GraphIndex

        cached = graph.cached_index()
        if cached is not None and cached.version == graph.version - 1:
            index = cached.refreshed(delta)
        else:
            index = GraphIndex.for_graph(graph)
        updates = apply_delta_to_partition(
            self._partition, delta, inverse=inverse, index=index
        )
        self._partition_version = graph.version
        executor = self._executor
        if updates and executor is not None and hasattr(executor, "apply_delta"):
            executor.apply_delta(updates)
        return updates

    # ------------------------------------------------------------------ tasks

    def fragment_tasks(
        self,
        pattern: QuantifiedGraphPattern,
        partition: "HopPreservingPartition",
    ) -> List[FragmentTask]:
        """One :class:`FragmentTask` per non-empty fragment for *pattern*.

        This is the single place task construction lives: :meth:`evaluate`
        uses it for one pattern, and the serving layer's batched dispatch
        (:mod:`repro.service.server`) concatenates it across many patterns —
        both paths must stay byte-identical, so neither re-implements it.
        """
        return [
            FragmentTask(
                fragment_id=fragment.fragment_id,
                fragment_graph=partition.fragment_graph(fragment),
                # None (the identity fragment) means "owns whatever the graph
                # holds": no per-task O(|V|) copy, no focus restriction.
                owned_nodes=(
                    None if fragment.owned_nodes is None else set(fragment.owned_nodes)
                ),
                pattern=pattern,
                engine=self.engine,
            )
            for fragment in partition.fragments
            if fragment.owned_nodes is None or fragment.owned_nodes
        ]

    def run_fragment_tasks(self, tasks: List[FragmentTask]) -> List[FragmentResult]:
        """Run *tasks* through this coordinator's execution mode, in order.

        With intra-fragment threading enabled each task fans out itself via
        ``mqmatch_fragment``; otherwise the whole list ships to the persistent
        executor as one round.
        """
        if self.threads > 1:
            return [
                mqmatch_fragment(
                    task.pattern,
                    task.fragment_graph,
                    task.owned_nodes,
                    engine=task.engine,
                    fragment_id=task.fragment_id,
                    threads=self.threads,
                )
                for task in tasks
            ]
        return self.executor.run(tasks)

    # ------------------------------------------------------------------ query

    def evaluate(
        self, pattern: QuantifiedGraphPattern, graph: PropertyGraph
    ) -> ParallelMatchResult:
        """Compute ``Q(xo, G)`` by fragment-parallel evaluation."""
        pattern.validate()
        radius = pattern.radius()
        with Timer() as partition_timer:
            partition = self.ensure_radius(graph, radius)

        tasks = self.fragment_tasks(pattern, partition)
        counter = WorkCounter()
        with Timer() as timer:
            fragment_results = self.run_fragment_tasks(tasks)
        answer: Set[NodeId] = set()
        for fragment_result in fragment_results:
            answer |= fragment_result.answer
            counter.merge(fragment_result.counter)

        return ParallelMatchResult(
            answer=answer,
            fragments=list(fragment_results),
            counter=counter,
            elapsed=timer.elapsed,
            partition_elapsed=partition_timer.elapsed,
            engine=self.name,
        )

    def evaluate_answer(self, pattern: QuantifiedGraphPattern, graph: PropertyGraph) -> Set[NodeId]:
        """Convenience wrapper returning only the answer set."""
        return self.evaluate(pattern, graph).answer


# ------------------------------------------------------------------ factories


def pqmatch_engine(
    num_workers: int = 4, d: int = 2, executor: str = "serial", threads: int = 2, seed: SeedLike = 0
) -> PQMatch:
    """The paper's PQMatch: incremental QMatch per fragment + intra-fragment threads."""
    return PQMatch(
        num_workers=num_workers,
        d=d,
        executor=executor,
        engine=QMatch(use_incremental=True),
        threads=threads,
        seed=seed,
        name=f"PQMatch(n={num_workers})",
    )


def pqmatch_s_engine(
    num_workers: int = 4, d: int = 2, executor: str = "serial", seed: SeedLike = 0
) -> PQMatch:
    """PQMatchS: the single-thread-per-worker variant (no intra-fragment parallelism)."""
    return PQMatch(
        num_workers=num_workers,
        d=d,
        executor=executor,
        engine=QMatch(use_incremental=True),
        threads=1,
        seed=seed,
        name=f"PQMatchS(n={num_workers})",
    )


def pqmatch_n_engine(
    num_workers: int = 4, d: int = 2, executor: str = "serial", seed: SeedLike = 0
) -> PQMatch:
    """PQMatchN: workers recompute positified patterns instead of IncQMatch."""
    return PQMatch(
        num_workers=num_workers,
        d=d,
        executor=executor,
        engine=QMatch(use_incremental=False),
        threads=1,
        seed=seed,
        name=f"PQMatchN(n={num_workers})",
    )


def penum_engine(
    num_workers: int = 4, d: int = 2, executor: str = "serial", seed: SeedLike = 0
) -> PQMatch:
    """PEnum: workers run the enumerate-then-verify baseline on their fragments."""
    return PQMatch(
        num_workers=num_workers,
        d=d,
        executor=executor,
        engine=_EnumFragmentEngine(),
        threads=1,
        seed=seed,
        name=f"PEnum(n={num_workers})",
    )
