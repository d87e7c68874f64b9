"""Tests for heterogeneous graphs and message-flow-graph (MFG) utilities."""

import numpy as np
import pytest

from repro.graph import Graph, HeteroGraph, message_flow_masks, mfg_savings, required_node_counts
from repro.graph.generators import ring_graph


@pytest.fixture
def small_hetero():
    relations = {
        "cites": (np.array([0, 1, 2]), np.array([1, 2, 3])),
        "writes": (np.array([3, 4]), np.array([0, 1])),
    }
    return HeteroGraph(5, relations)


class TestHeteroGraph:
    def test_counts(self, small_hetero):
        assert small_hetero.num_relations == 2
        assert small_hetero.num_edges == 5
        assert small_hetero.num_edges_of("cites") == 3

    def test_unknown_relation_raises(self, small_hetero):
        with pytest.raises(KeyError):
            small_hetero.num_edges_of("bogus")

    def test_requires_at_least_one_relation(self):
        with pytest.raises(ValueError):
            HeteroGraph(3, {})

    def test_relation_graph(self, small_hetero):
        g = small_hetero.relation_graph("writes")
        assert isinstance(g, Graph)
        assert g.num_edges == 2
        assert g.num_nodes == 5

    def test_to_homogeneous_preserves_all_edges(self, small_hetero):
        merged, etypes = small_hetero.to_homogeneous()
        assert merged.num_edges == 5
        assert len(etypes) == 5
        assert set(np.unique(etypes)) == {0, 1}

    def test_in_degrees_per_relation_and_total(self, small_hetero):
        total = small_hetero.in_degrees()
        cites = small_hetero.in_degrees("cites")
        writes = small_hetero.in_degrees("writes")
        np.testing.assert_array_equal(total, cites + writes)

    def test_relation_plan_mean_normalized(self, small_hetero):
        ones = np.ones((small_hetero.num_nodes, 1), dtype=np.float32)
        rows = small_hetero.relation_plan("cites").aggregate_mean(ones).reshape(-1)
        present = small_hetero.in_degrees("cites") > 0
        np.testing.assert_allclose(rows[present], 1.0)
        np.testing.assert_allclose(rows[~present], 0.0)

    def test_relation_subset(self, small_hetero):
        sub = small_hetero.relation_subset(["cites"])
        assert sub.relation_names == ["cites"]

    def test_ndata_validation(self, small_hetero):
        small_hetero.set_ndata("feat", np.zeros((5, 2)))
        with pytest.raises(ValueError):
            small_hetero.set_ndata("bad", np.zeros((4, 2)))

    def test_node_types_length_checked(self):
        relations = {"r": (np.array([0]), np.array([1]))}
        with pytest.raises(ValueError):
            HeteroGraph(3, relations, node_types=np.array([0, 1]))


class TestMessageFlowGraph:
    def test_masks_grow_backwards_from_seeds(self):
        # Path graph 0→1→2→3→4 (messages flow along edges).
        g = Graph(5, [0, 1, 2, 3], [1, 2, 3, 4])
        masks = message_flow_masks(g, seed_nodes=[4], num_layers=2)
        np.testing.assert_array_equal(masks[2], [False, False, False, False, True])
        np.testing.assert_array_equal(masks[1], [False, False, False, True, True])
        np.testing.assert_array_equal(masks[0], [False, False, True, True, True])

    def test_counts_monotonically_decrease_towards_output(self, sbm_graph):
        seeds = np.arange(5)
        counts = required_node_counts(sbm_graph, seeds, num_layers=3)
        assert counts[-1] == 5
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_all_nodes_seeded_gives_no_savings(self, tiny_graph):
        seeds = np.arange(tiny_graph.num_nodes)
        assert mfg_savings(tiny_graph, seeds, num_layers=2) == 0.0

    def test_sparse_seeds_give_savings_on_ring(self):
        g = ring_graph(100)
        savings = mfg_savings(g, seed_nodes=[0], num_layers=2)
        assert savings > 0.9

    def test_seed_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            message_flow_masks(tiny_graph, [99], num_layers=2)
        with pytest.raises(ValueError):
            message_flow_masks(tiny_graph, [0], num_layers=0)
