"""Unit tests for the compiled graph-index subsystem (``repro.index``)."""

from __future__ import annotations

import pickle

import pytest

from repro.graph import PropertyGraph, random_labeled_graph
from repro.index import GraphIndex, Interner, build_csr_pair, build_signatures
from repro.utils.errors import StaleIndexError

from fixtures import build_paper_g1


class TestInterner:
    def test_dense_ids_in_first_seen_order(self):
        interner = Interner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2
        assert interner.value_of(1) == "b"
        assert list(interner) == ["a", "b"]

    def test_get_returns_minus_one_for_unknown(self):
        interner = Interner(["x"])
        assert interner.get("x") == 0
        assert interner.get("missing") == -1
        assert "missing" not in interner
        with pytest.raises(KeyError):
            interner.id_of("missing")


class TestCSR:
    def test_rows_match_graph_adjacency(self):
        graph = random_labeled_graph(num_nodes=40, edge_probability=0.12, seed=3)
        index = GraphIndex.build(graph)
        for node in graph.nodes():
            node_id = index.node_id(node)
            for label in index.edge_labels:
                assert index.successors(node, label) == graph.successors(node, label)
                assert index.predecessors(node, label) == graph.predecessors(node, label)
                label_id = index.edge_label_id(label)
                assert index.out_degree_ids(node_id, label_id) == graph.out_degree(node, label)
                assert index.in_degree_ids(node_id, label_id) == graph.in_degree(node, label)
            assert index.out_degree_ids(node_id) == graph.out_degree(node)
            assert index.in_degree_ids(node_id) == graph.in_degree(node)

    def test_empty_graph(self):
        outgoing, incoming = build_csr_pair(0, 0, [])
        assert outgoing.num_nodes == 0 and incoming.num_nodes == 0
        graph = PropertyGraph("empty")
        index = GraphIndex.build(graph)
        assert index.num_nodes == 0
        assert index.nodes_with_label("anything") == set()


class TestSignatures:
    def test_bits_reflect_neighbourhoods(self):
        # 0 -[e0]-> 1 with node labels L0, L1.
        signatures = build_signatures(2, 2, [0, 1], [(0, 1, 0)])
        bit = signatures.bit(0, 1)  # edge label 0 toward node label 1
        assert signatures.out_sig[0] & bit
        assert not signatures.out_sig[1]
        assert signatures.in_sig[1] & signatures.bit(0, 0)
        assert signatures.satisfies(0, bit, 0)
        assert not signatures.satisfies(1, bit, 0)
        assert signatures.filter_ids([0, 1], bit, 0) == [0]

    def test_pattern_masks_soundness_on_paper_g1(self, pattern_q3):
        """Signature-filtered candidates still contain every simulation member."""
        graph = build_paper_g1()
        index = GraphIndex.build(graph)
        positive = pattern_q3.pi().stratified().graph
        from test_engine_oracle import reference_simulation

        relation = reference_simulation(positive, graph, dual=True)
        filtered = index.label_candidates_ids(positive, dual=True)
        for pattern_node, members in relation.items():
            kept = index.to_nodes(filtered[pattern_node])
            assert members <= kept

    def test_mask_is_impossible_for_absent_labels(self):
        graph = build_paper_g1()
        index = GraphIndex.build(graph)
        pattern = PropertyGraph("pat")
        pattern.add_node("u", "person")
        pattern.add_node("w", "no_such_label")
        pattern.add_edge("u", "w", "follow")
        masks = index.pattern_masks(pattern, dual=True)
        assert masks["u"] is None
        candidates = index.label_candidates_ids(pattern, dual=True)
        assert candidates["u"] == set()


class TestSnapshot:
    def test_for_graph_caches_until_mutation(self):
        graph = build_paper_g1()
        first = GraphIndex.for_graph(graph)
        assert GraphIndex.for_graph(graph) is first
        graph.add_node("new", "person")
        assert first.is_stale()
        second = GraphIndex.for_graph(graph)
        assert second is not first
        assert not second.is_stale()
        assert "new" in second.nodes_with_label("person")

    def test_ensure_fresh_raises_on_stale(self):
        graph = build_paper_g1()
        index = GraphIndex.build(graph)
        index.ensure_fresh()
        graph.remove_edge("x1", "v0", "follow")
        with pytest.raises(StaleIndexError):
            index.ensure_fresh()

    def test_version_ignores_attribute_updates(self):
        graph = build_paper_g1()
        index = GraphIndex.for_graph(graph)
        graph.set_node_attr("x1", "city", "prague")
        graph.add_node("x1", "person", vip=True)  # same label: attrs only
        assert not index.is_stale()

    def test_label_count_and_membership(self):
        graph = build_paper_g1()
        index = GraphIndex.build(graph)
        person_id = index.node_label_id("person")
        assert index.label_count(person_id) == 8
        assert index.nodes_with_label("person") == graph.nodes_with_label("person")
        assert index.nodes_with_label("Redmi_2A") == {"redmi"}

    def test_pickling_a_graph_drops_the_cached_snapshot(self):
        graph = build_paper_g1()
        GraphIndex.for_graph(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.cached_index() is None
        assert clone.version == graph.version
