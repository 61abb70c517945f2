"""Tests for the graph statistics of the paper's experiment reports."""

from __future__ import annotations

import pytest

from repro.graph.statistics import (
    degree_histogram,
    graph_statistics,
    neighborhood_size_bound,
)


class TestGraphStatistics:
    def test_summary_fields(self, paper_g1):
        stats = graph_statistics(paper_g1)
        assert stats.num_nodes == paper_g1.num_nodes
        assert stats.num_edges == paper_g1.num_edges
        assert stats.node_label_counts["person"] == 8
        assert stats.edge_label_counts["follow"] == 6
        assert stats.max_in_degree == 5  # the phone has five reviewers pointing at it
        assert "graph paper-G1" in stats.describe()

    def test_degree_histogram(self, paper_g1):
        out_hist = degree_histogram(paper_g1, "out")
        assert out_hist[3] == 1  # x3 follows three reviewers
        assert sum(out_hist.values()) == paper_g1.num_nodes
        total_hist = degree_histogram(paper_g1, "total")
        assert sum(k * v for k, v in total_hist.items()) == 2 * paper_g1.num_edges
        with pytest.raises(ValueError):
            degree_histogram(paper_g1, "sideways")

    def test_neighborhood_size_bound(self, small_pokec):
        report = neighborhood_size_bound(small_pokec, d=2, num_workers=4, sample_size=50)
        assert report["sum_neighborhood_sizes"] > 0
        assert report["budget"] == pytest.approx(small_pokec.size() / 4)
        assert report["implied_cd"] > 0
        with pytest.raises(ValueError):
            neighborhood_size_bound(small_pokec, d=-1, num_workers=4)
        with pytest.raises(ValueError):
            neighborhood_size_bound(small_pokec, d=1, num_workers=0)

    def test_statistics_on_empty_graph(self):
        from repro.graph import PropertyGraph

        stats = graph_statistics(PropertyGraph("empty"))
        assert stats.num_nodes == 0 and stats.num_edges == 0
        report = neighborhood_size_bound(PropertyGraph("empty"), d=1, num_workers=2)
        assert report["sum_neighborhood_sizes"] == 0.0
