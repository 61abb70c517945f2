"""Descriptive statistics of property graphs.

The experiment reports of the paper characterise each dataset by its size, the
number of node/edge types and the average degree, and the parallel section
reasons about the total size of d-hop neighbourhoods (the pre-condition of
Theorem 7).  :func:`graph_statistics` gathers those quantities for any
:class:`~repro.graph.digraph.PropertyGraph`, and
:func:`neighborhood_size_bound` evaluates the Σ|Nd(v)| ≤ Cd·|G|/n condition
directly so users can check whether the parallel-scalability guarantee applies
to their graph before partitioning it.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.graph.digraph import PropertyGraph
from repro.graph.traversal import nodes_within_hops
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "GraphStatistics",
    "graph_statistics",
    "degree_histogram",
    "neighborhood_size_bound",
    "CardinalityModel",
    "cardinality_model",
]

NodeId = Hashable


@dataclass
class GraphStatistics:
    """A summary of one graph, as reported in the paper's experimental setup."""

    name: str
    num_nodes: int
    num_edges: int
    num_node_labels: int
    num_edge_labels: int
    average_out_degree: float
    max_out_degree: int
    max_in_degree: int
    node_label_counts: Dict[str, int] = field(default_factory=dict)
    edge_label_counts: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"graph {self.name}: {self.num_nodes} nodes ({self.num_node_labels} types), "
            f"{self.num_edges} edges ({self.num_edge_labels} types)",
            f"  average out-degree {self.average_out_degree:.2f}, "
            f"max out/in degree {self.max_out_degree}/{self.max_in_degree}",
        ]
        return "\n".join(lines)


def graph_statistics(graph: PropertyGraph) -> GraphStatistics:
    """Compute the dataset summary used in experiment reports."""
    node_labels = Counter(graph.node_label(node) for node in graph.nodes())
    edge_labels: Counter = Counter()
    max_out = 0
    max_in = 0
    for node in graph.nodes():
        max_out = max(max_out, graph.out_degree(node))
        max_in = max(max_in, graph.in_degree(node))
    for _, _, label in graph.edges():
        edge_labels[label] += 1
    return GraphStatistics(
        name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_node_labels=len(node_labels),
        num_edge_labels=len(edge_labels),
        average_out_degree=graph.average_degree(),
        max_out_degree=max_out,
        max_in_degree=max_in,
        node_label_counts=dict(node_labels),
        edge_label_counts=dict(edge_labels),
    )


def degree_histogram(graph: PropertyGraph, direction: str = "out") -> Dict[int, int]:
    """Histogram of node degrees (``direction`` is ``"out"``, ``"in"`` or ``"total"``)."""
    if direction not in ("out", "in", "total"):
        raise ValueError("direction must be 'out', 'in' or 'total'")
    histogram: Counter = Counter()
    for node in graph.nodes():
        if direction == "out":
            degree = graph.out_degree(node)
        elif direction == "in":
            degree = graph.in_degree(node)
        else:
            degree = graph.out_degree(node) + graph.in_degree(node)
        histogram[degree] += 1
    return dict(histogram)


class CardinalityModel:
    """Independence-assumption cardinality estimates for plan steps.

    One O(V+E) pass collects the two distributions a textbook estimator
    needs: node counts per label and edge counts per **typed triple**
    ``(source label, edge label, target label)``.  From those,
    :meth:`expected_pool` answers the question the matching order poses at
    every step — *given one bound neighbour, how many candidates survive the
    edge constraint?* — as the mean typed degree of the bound endpoint.
    These are the *estimates* of ``EXPLAIN``; the observed side comes from
    the :class:`~repro.utils.counters.WorkCounter` probes the engines
    already tally.

    The model is a snapshot of one graph version; :func:`cardinality_model`
    memoises per ``(graph, version)`` so Zipf-hot explain traffic pays the
    pass once per epoch.
    """

    __slots__ = ("graph_name", "version", "num_nodes", "num_edges",
                 "label_counts", "triple_counts")

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph_name = graph.name
        self.version = graph.version
        node_labels: Dict[NodeId, str] = {}
        label_counts: Counter = Counter()
        for node in graph.nodes():
            label = graph.node_label(node)
            node_labels[node] = label
            label_counts[label] += 1
        triple_counts: Counter = Counter()
        for source, target, edge_label in graph.edges():
            triple_counts[(node_labels[source], edge_label, node_labels[target])] += 1
        self.num_nodes = len(node_labels)
        self.num_edges = sum(triple_counts.values())
        self.label_counts: Dict[str, int] = dict(label_counts)
        self.triple_counts: Dict[Tuple[str, str, str], int] = dict(triple_counts)

    def label_count(self, label: str) -> int:
        """How many nodes carry *label* (the unconstrained pool estimate)."""
        return self.label_counts.get(label, 0)

    def triple_count(self, source_label: str, edge_label: str, target_label: str) -> int:
        """How many edges realise the typed triple."""
        return self.triple_counts.get((source_label, edge_label, target_label), 0)

    def expected_pool(
        self,
        new_label: str,
        edge_label: str,
        bound_label: str,
        outgoing: bool,
    ) -> float:
        """E[|candidates|] for a *new_label* node tied to one bound node.

        ``outgoing=True`` means the pattern edge runs new → bound (the pool
        is the bound node's typed predecessors), ``False`` means bound → new
        (its typed successors).  Either way the estimate is the triple count
        divided by the bound label's population — the mean typed degree.
        """
        bound = self.label_counts.get(bound_label, 0)
        if bound == 0:
            return 0.0
        if outgoing:
            triple = self.triple_counts.get((new_label, edge_label, bound_label), 0)
        else:
            triple = self.triple_counts.get((bound_label, edge_label, new_label), 0)
        return triple / bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CardinalityModel(graph={self.graph_name!r}, version={self.version}, "
            f"labels={len(self.label_counts)}, triples={len(self.triple_counts)})"
        )


# (id(graph), version) -> (graph, model).  The graph rides in the value to pin
# its id against recycling, mirroring ResultCache keying.
_MODEL_CACHE: "OrderedDict[Tuple[int, int], Tuple[PropertyGraph, CardinalityModel]]" = (
    OrderedDict()
)
_MODEL_CACHE_LOCK = threading.Lock()
_MODEL_CACHE_CAPACITY = 8


def cardinality_model(graph: PropertyGraph) -> CardinalityModel:
    """The memoised :class:`CardinalityModel` of *graph* at its current version."""
    key = (id(graph), graph.version)
    with _MODEL_CACHE_LOCK:
        entry = _MODEL_CACHE.get(key)
        if entry is not None and entry[0] is graph:
            _MODEL_CACHE.move_to_end(key)
            return entry[1]
    model = CardinalityModel(graph)
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE[key] = (graph, model)
        _MODEL_CACHE.move_to_end(key)
        while len(_MODEL_CACHE) > _MODEL_CACHE_CAPACITY:
            _MODEL_CACHE.popitem(last=False)
    return model


def neighborhood_size_bound(
    graph: PropertyGraph,
    d: int,
    num_workers: int,
    sample_size: int = 200,
    seed: SeedLike = 0,
) -> Dict[str, float]:
    """Estimate the parallel-scalability condition Σ|Nd(v)| ≤ Cd · |G| / n.

    The sum is estimated from a random node sample (exact when the graph has
    at most *sample_size* nodes).  Returns the estimated sum, the |G|/n
    budget, and the implied constant ``Cd`` — values of ``Cd`` in the low tens
    mean the d-hop partition replicates heavily and the parallel guarantee is
    weak for this graph and d.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    rng = ensure_rng(seed)
    nodes: List[NodeId] = list(graph.nodes())
    if not nodes:
        return {"sum_neighborhood_sizes": 0.0, "budget": 0.0, "implied_cd": 0.0}
    if len(nodes) > sample_size:
        sampled = rng.sample(nodes, sample_size)
        scale = len(nodes) / sample_size
    else:
        sampled = nodes
        scale = 1.0
    total = sum(len(nodes_within_hops(graph, node, d)) for node in sampled) * scale
    budget = graph.size() / num_workers
    implied_cd = total / budget if budget else float("inf")
    return {
        "sum_neighborhood_sizes": total,
        "budget": budget,
        "implied_cd": implied_cd,
    }
