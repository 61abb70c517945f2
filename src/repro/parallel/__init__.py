"""Parallel quantified matching: MKP, d-hop preserving partition, PQMatch."""

from repro.parallel.coordinator import (
    PQMatch,
    penum_engine,
    pqmatch_engine,
    pqmatch_n_engine,
    pqmatch_s_engine,
)
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    SimulatedCluster,
    ThreadedExecutor,
    make_executor,
)
from repro.parallel.mkp import KnapsackItem, greedy_mkp, mkp_assign
from repro.parallel.partition import (
    DPar,
    Fragment,
    HopPreservingPartition,
    IdentityPartition,
    base_partition,
)
from repro.parallel.worker import (
    FragmentPayload,
    FragmentTask,
    engine_from_spec,
    engine_to_spec,
    match_fragment,
    mqmatch_fragment,
)

__all__ = [
    "KnapsackItem",
    "greedy_mkp",
    "mkp_assign",
    "DPar",
    "Fragment",
    "HopPreservingPartition",
    "IdentityPartition",
    "base_partition",
    "FragmentPayload",
    "FragmentTask",
    "engine_to_spec",
    "engine_from_spec",
    "match_fragment",
    "mqmatch_fragment",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "SimulatedCluster",
    "make_executor",
    "PQMatch",
    "pqmatch_engine",
    "pqmatch_s_engine",
    "pqmatch_n_engine",
    "penum_engine",
]
