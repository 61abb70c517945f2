"""repro — quantified graph patterns, quantified matching and QGARs.

A from-scratch Python reproduction of

    Wenfei Fan, Yinghui Wu, Jingbo Xu.
    "Adding Counting Quantifiers to Graph Patterns." SIGMOD 2016.

The package layers cleanly:

* :mod:`repro.graph`    — labeled directed property graphs, traversal,
  simulation, synthetic generators, I/O;
* :mod:`repro.patterns` — quantified graph patterns (QGPs), a builder and a
  textual DSL, the workload generator, and the complexity reductions;
* :mod:`repro.index`    — compiled graph snapshots (interned ids, per-label
  CSR adjacency, degree arrays, neighbourhood signatures) that the matching
  and parallel layers run on;
* :mod:`repro.matching` — the Enum baseline, QMatch/DMatch and the incremental
  IncQMatch for negated edges;
* :mod:`repro.parallel` — the d-hop preserving partitioner DPar and the
  parallel coordinator PQMatch;
* :mod:`repro.rules`    — quantified graph association rules (QGARs), GPARs,
  and the mining procedure;
* :mod:`repro.service`  — the query-serving layer: canonicalized pattern
  fingerprints, a version-aware LRU result cache, and the batching
  ``QueryService`` façade over PQMatch;
* :mod:`repro.delta`    — the graph-update layer: typed ``GraphDelta``
  batches, incremental index refresh, affected-area incremental matching,
  partition/pool delta shipping and standing-query maintenance;
* :mod:`repro.datasets` — Pokec-like / YAGO2-like / synthetic workloads;
* :mod:`repro.obs`      — observability: opt-in span tracing with
  cross-process propagation, and the always-on service introspection behind
  ``QueryService.stats()``;
* :mod:`repro.serve`    — the scale-out tier: a shard router
  (``ShardedService``) over per-shard ``QueryService`` fleets, bounded
  admission with backpressure, and a CRC-checked cross-process result cache
  keyed on per-shard ``VersionVector``\\ s;
* :mod:`repro.core`     — the stable public API re-exported in one namespace.
"""

from repro.core import (
    DPar,
    DMatchOptions,
    EnumMatcher,
    GraphIndex,
    HopPreservingPartition,
    MatchResult,
    ParallelMatchResult,
    PatternBuilder,
    PQMatch,
    PropertyGraph,
    QGAR,
    QMatch,
    QuantifiedGraphPattern,
    CountingQuantifier,
    dgar_match,
    gar_match,
    mine_qgars,
    parse_pattern,
    penum_engine,
    pqmatch_engine,
    pqmatch_n_engine,
    pqmatch_s_engine,
    qmatch_engine,
    qmatch_n_engine,
    small_world_social_graph,
    QueryService,
    ResultCache,
    ServiceResult,
    Subscription,
    canonicalize,
    pattern_fingerprint,
    GraphDelta,
    apply_delta,
    graph_diff,
    inc_qmatch_delta,
    ShardedService,
    VersionVector,
    SharedResultCache,
    AdmissionConfig,
    AdmissionQueue,
    build_shards,
    ServiceIntrospection,
    enable_tracing,
    disable_tracing,
    active_tracing,
    get_tracer,
    span,
    format_span_tree,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PropertyGraph",
    "GraphIndex",
    "small_world_social_graph",
    "CountingQuantifier",
    "QuantifiedGraphPattern",
    "PatternBuilder",
    "parse_pattern",
    "EnumMatcher",
    "QMatch",
    "qmatch_engine",
    "qmatch_n_engine",
    "DMatchOptions",
    "MatchResult",
    "ParallelMatchResult",
    "DPar",
    "HopPreservingPartition",
    "PQMatch",
    "pqmatch_engine",
    "pqmatch_s_engine",
    "pqmatch_n_engine",
    "penum_engine",
    "QGAR",
    "gar_match",
    "dgar_match",
    "mine_qgars",
    "QueryService",
    "ServiceResult",
    "ResultCache",
    "Subscription",
    "canonicalize",
    "pattern_fingerprint",
    "GraphDelta",
    "apply_delta",
    "graph_diff",
    "inc_qmatch_delta",
    "ShardedService",
    "VersionVector",
    "SharedResultCache",
    "AdmissionConfig",
    "AdmissionQueue",
    "build_shards",
    "ServiceIntrospection",
    "enable_tracing",
    "disable_tracing",
    "active_tracing",
    "get_tracer",
    "span",
    "format_span_tree",
]
