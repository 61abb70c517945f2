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

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List

from repro.graph.digraph import PropertyGraph
from repro.graph.traversal import nodes_within_hops
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "GraphStatistics",
    "graph_statistics",
    "degree_histogram",
    "neighborhood_size_bound",
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
