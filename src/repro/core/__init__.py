"""The stable public API of the reproduction, re-exported in one namespace.

Downstream users should import from ``repro.core`` (or the top-level
``repro``): it exposes the graph substrate, the QGP model, the sequential and
parallel matching engines, and the QGAR layer, without reaching into the
internal module layout.
"""

from repro.delta import GraphDelta, apply_delta, graph_diff, inc_qmatch_delta
from repro.graph import PropertyGraph, small_world_social_graph
from repro.index import GraphIndex
from repro.matching import (
    DMatchOptions,
    EnumMatcher,
    MatchResult,
    ParallelMatchResult,
    QMatch,
    qmatch_engine,
    qmatch_n_engine,
)
from repro.parallel import (
    DPar,
    HopPreservingPartition,
    PQMatch,
    penum_engine,
    pqmatch_engine,
    pqmatch_n_engine,
    pqmatch_s_engine,
)
from repro.patterns import (
    CountingQuantifier,
    PatternBuilder,
    QuantifiedGraphPattern,
    parse_pattern,
)
from repro.obs import (
    ServiceIntrospection,
    active_tracing,
    disable_tracing,
    enable_tracing,
    format_span_tree,
    get_tracer,
    span,
)
from repro.rules import QGAR, dgar_match, gar_match, mine_qgars
from repro.serve import (
    AdmissionConfig,
    AdmissionQueue,
    ShardedService,
    SharedResultCache,
    VersionVector,
    build_shards,
)
from repro.service import (
    QueryService,
    ResultCache,
    ServiceResult,
    Subscription,
    canonicalize,
    pattern_fingerprint,
)

__all__ = [
    "PropertyGraph",
    "GraphIndex",
    "GraphDelta",
    "apply_delta",
    "graph_diff",
    "inc_qmatch_delta",
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
