"""Scale-out serving: shard router, admission control, shared result cache.

``repro.serve`` is the eighth layer of the reproduction — the one that turns
one :class:`~repro.service.server.QueryService` into a *fleet*:

* :mod:`repro.serve.versions` — :class:`VersionVector`, per-shard mutation
  counters as one immutable, hashable, cache-key-ready vector (a collapsed
  scalar aliases distinct fleet states — the bug class the vector exists to
  kill);
* :mod:`repro.serve.shards` — deterministic node-hash ownership with d-hop
  halo balls (:func:`build_shards`), plus delta routing: which shards a
  batch reaches (:func:`affected_shards`) and the exact per-shard sub-delta
  (:func:`shard_subdelta` via :func:`repro.delta.graph_diff`);
* :mod:`repro.serve.admission` — the bounded, prioritised front door:
  reject-with-:class:`~repro.utils.errors.Overloaded` or block-with-timeout
  backpressure and graceful drain;
* :mod:`repro.serve.shared_cache` — the sqlite cross-process L2, CRC-checked,
  where every read failure degrades to recompute, never to a wrong answer;
* :mod:`repro.serve.router` — :class:`ShardedService`, composing all of the
  above as the fleet backend of the request pipeline a single service runs
  (:mod:`repro.service.pipeline`): coalesced fan-out with answers merged
  byte-identical to a single service on the union graph, in-flight dedup,
  vector-keyed caching, and delta routing that bumps only the shards a
  batch reaches.

See ``docs/SERVING.md`` for the executable walkthrough and
``benchmarks/bench_scaleout.py`` for the figure this layer is measured by.
"""

from repro.serve.admission import AdmissionConfig, AdmissionQueue, AdmissionStats
from repro.serve.router import RouterStats, ShardedService
from repro.serve.shards import (
    GraphShard,
    affected_shards,
    build_shards,
    hash_assign,
    shard_subdelta,
    undirected_ball,
)
from repro.serve.shared_cache import SharedCacheStats, SharedResultCache
from repro.serve.versions import VersionVector

__all__ = [
    "ShardedService",
    "RouterStats",
    "VersionVector",
    "GraphShard",
    "build_shards",
    "hash_assign",
    "undirected_ball",
    "affected_shards",
    "shard_subdelta",
    "AdmissionConfig",
    "AdmissionQueue",
    "AdmissionStats",
    "SharedResultCache",
    "SharedCacheStats",
]
