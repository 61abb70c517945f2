"""Tests for the merged undirected CSR and its frontier-array BFS."""

from __future__ import annotations

import pytest

from repro.graph import PropertyGraph, nodes_within_hops, random_labeled_graph
from repro.index import GraphIndex, merge_undirected

from fixtures import build_paper_g1


def _grid_graph(width: int = 4, height: int = 4) -> PropertyGraph:
    graph = PropertyGraph("grid")
    for x in range(width):
        for y in range(height):
            graph.add_node((x, y), "cell")
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                graph.add_edge((x, y), (x + 1, y), "right")
            if y + 1 < height:
                graph.add_edge((x, y), (x, y + 1), "up")
    return graph


class TestMergeUndirected:
    def test_rows_are_sorted_and_deduplicated(self):
        graph = PropertyGraph("multi")
        for node in "abc":
            graph.add_node(node, "n")
        # a and b are connected by two labels and in both directions: the
        # merged view must store the pair once.
        graph.add_edge("a", "b", "x")
        graph.add_edge("a", "b", "y")
        graph.add_edge("b", "a", "x")
        graph.add_edge("c", "a", "x")
        snapshot = GraphIndex.build(graph)
        merged = snapshot.neighborhoods()
        a = snapshot.node_id("a")
        row = list(merged.neighbors_ids(a))
        assert row == sorted(row)
        assert snapshot.to_nodes(row) == {"b", "c"}
        assert merged.degree(a) == 2

    def test_merged_matches_graph_neighbors_everywhere(self):
        graph = build_paper_g1()
        snapshot = GraphIndex.build(graph)
        merged = snapshot.neighborhoods()
        for node in graph.nodes():
            dense = snapshot.node_id(node)
            assert snapshot.to_nodes(merged.neighbors_ids(dense)) == graph.neighbors(node)

    def test_lazy_build_is_cached(self):
        snapshot = GraphIndex.build(build_paper_g1())
        assert snapshot.neighborhoods() is snapshot.neighborhoods()

    def test_direct_merge_equals_snapshot_view(self):
        snapshot = GraphIndex.build(build_paper_g1())
        direct = merge_undirected(snapshot.out, snapshot.inc)
        cached = snapshot.neighborhoods()
        assert list(direct.indptr) == list(cached.indptr)
        assert list(direct.indices) == list(cached.indices)


class TestFrontierBFS:
    @pytest.mark.parametrize("hops", [0, 1, 2, 3, 10])
    def test_matches_dict_bfs_on_grid(self, hops):
        graph = _grid_graph()
        snapshot = GraphIndex.build(graph)
        merged = snapshot.neighborhoods()
        for node in graph.nodes():
            expected = nodes_within_hops(graph, node, hops)
            reached = merged.nodes_within_hops_ids(snapshot.node_id(node), hops)
            assert snapshot.to_nodes(reached) == expected

    def test_matches_dict_bfs_on_random_graphs(self):
        for seed in (0, 1, 2):
            graph = random_labeled_graph(
                num_nodes=40, edge_probability=0.08, node_labels=["a", "b"],
                edge_labels=["e", "f"], seed=seed,
            )
            snapshot = GraphIndex.build(graph)
            merged = snapshot.neighborhoods()
            for node in graph.nodes():
                for hops in (1, 2):
                    assert snapshot.to_nodes(
                        merged.nodes_within_hops_ids(snapshot.node_id(node), hops)
                    ) == nodes_within_hops(graph, node, hops)

    def test_scratch_buffer_is_reset_between_calls(self):
        graph = _grid_graph()
        snapshot = GraphIndex.build(graph)
        merged = snapshot.neighborhoods()
        scratch = bytearray(snapshot.num_nodes)
        for node in graph.nodes():
            expected = nodes_within_hops(graph, node, 2)
            reached = merged.nodes_within_hops_ids(
                snapshot.node_id(node), 2, visited=scratch
            )
            assert snapshot.to_nodes(reached) == expected
        assert not any(scratch)

    def test_result_starts_with_source_in_bfs_order(self):
        graph = _grid_graph()
        snapshot = GraphIndex.build(graph)
        merged = snapshot.neighborhoods()
        source = snapshot.node_id((0, 0))
        reached = merged.nodes_within_hops_ids(source, 2)
        assert reached[0] == source
        # Discovery order is breadth-first: distances are non-decreasing.
        from repro.graph import bfs_levels

        levels = bfs_levels(graph, (0, 0), directed=False)
        order = [levels[snapshot.node_of(i)] for i in reached]
        assert order == sorted(order)


class TestSortedRowsAndCompiledRows:
    def test_csr_rows_are_sorted(self):
        graph = random_labeled_graph(
            num_nodes=30, edge_probability=0.12, node_labels=["a"],
            edge_labels=["e", "f"], seed=3,
        )
        snapshot = GraphIndex.build(graph)
        for csr in (snapshot.out, snapshot.inc):
            for label_id in range(csr.num_labels):
                for node_id in range(csr.num_nodes):
                    indices, start, end = csr.row(label_id, node_id)
                    row = list(indices[start:end])
                    assert row == sorted(row)

    def test_compiled_rows_match_graph_adjacency(self):
        graph = build_paper_g1()
        snapshot = GraphIndex.build(graph)
        for label in ("follow", "recom", "bad_rating"):
            label_id = snapshot.edge_label_id(label)
            out_rows = snapshot.compiled_rows(False, label_id)
            in_rows = snapshot.compiled_rows(True, label_id)
            for node in graph.nodes():
                successors = graph.successors(node, label)
                predecessors = graph.predecessors(node, label)
                assert out_rows.get(node, frozenset()) == successors
                assert in_rows.get(node, frozenset()) == predecessors
            # Memoised per (direction, label).
            assert snapshot.compiled_rows(False, label_id) is out_rows
