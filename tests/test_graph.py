"""Tests for the Graph data structure and generators."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    Graph,
    barabasi_albert,
    erdos_renyi,
    ring_graph,
    star_graph,
    stochastic_block_model,
)


def _is_bidirected(graph: Graph) -> bool:
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    return all((d, s) in edges for s, d in edges)


def test_graph_and_partition_layers_import_nothing_above_them():
    """``graph/`` and ``partition/`` sit below ``sample/`` and ``serving/``: no
    module under them imports either, at top level or inside a function."""
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    paths = sorted((package / "graph").glob("*.py")) + sorted((package / "partition").glob("*.py"))
    assert len(paths) > 8  # not vacuous: graph.py, mfg.py, in_edges.py, shard.py, ...
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            upward += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.startswith(("repro.sample", "repro.serving"))
            ]
    assert not upward, upward


class TestGraphBasics:
    def test_construction_and_counts(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 5], [1, 2])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 1], [1])

    def test_degrees(self):
        g = Graph(4, [0, 1, 1, 2], [1, 2, 2, 3])
        np.testing.assert_array_equal(g.in_degrees(), [0, 1, 2, 1])
        np.testing.assert_array_equal(g.out_degrees(), [1, 2, 1, 0])

    def test_ndata_validation(self):
        g = Graph(3, [0], [1])
        g.set_ndata("feat", np.zeros((3, 4)))
        with pytest.raises(ValueError):
            g.set_ndata("bad", np.zeros((2, 4)))


class TestAdjacency:
    def test_sum_adjacency_matches_manual_aggregation(self, tiny_graph):
        x = np.random.randn(tiny_graph.num_nodes, 3).astype(np.float32)
        agg = tiny_graph.adjacency() @ x
        expected = np.zeros_like(x)
        np.add.at(expected, tiny_graph.dst, x[tiny_graph.src])
        # atol guards the near-zero sums of random normals, where a pure
        # relative tolerance occasionally explodes.
        np.testing.assert_allclose(agg, expected, rtol=1e-5, atol=1e-5)

    def test_mean_normalization_rows(self, tiny_graph):
        adj = tiny_graph.adjacency(normalization="mean")
        row_sums = np.asarray(adj.sum(axis=1)).reshape(-1)
        present = tiny_graph.in_degrees() > 0
        np.testing.assert_allclose(row_sums[present], 1.0, rtol=1e-5)

    def test_transpose_cached_consistent(self, tiny_graph):
        adj = tiny_graph.adjacency()
        adj_t = tiny_graph.adjacency(transpose=True)
        np.testing.assert_allclose(adj.toarray().T, adj_t.toarray())

    def test_sym_normalization_eigenvalue_bound(self, sbm_graph):
        adj = sbm_graph.adjacency(normalization="sym")
        x = np.random.randn(sbm_graph.num_nodes).astype(np.float32)
        # ||A_sym|| <= 1, so repeated application must not blow up.
        for _ in range(20):
            x = adj @ x
        assert np.all(np.isfinite(x))

    def test_unknown_normalization_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.adjacency(normalization="bogus")


class TestTransformations:
    def test_add_self_loops(self):
        g = Graph(3, [0], [1]).add_self_loops()
        assert g.num_edges == 4
        assert np.all(g.in_degrees() >= 1)

    def test_to_bidirected_is_symmetric(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3]).to_bidirected()
        assert _is_bidirected(g)

    def test_coalesce_removes_duplicates(self):
        g = Graph(3, [0, 0, 1], [1, 1, 2]).coalesce()
        assert g.num_edges == 2


class TestGenerators:
    def test_sbm_homophily(self):
        graph, blocks = stochastic_block_model([50, 50], p_in=0.2, p_out=0.01, seed=0)
        same = (blocks[graph.src] == blocks[graph.dst]).mean()
        assert same > 0.7

    def test_sbm_is_bidirected(self):
        graph, _ = stochastic_block_model([20, 20], 0.2, 0.05, seed=1)
        assert _is_bidirected(graph)

    def test_sbm_reproducible(self):
        g1, _ = stochastic_block_model([30, 30], 0.1, 0.02, seed=5)
        g2, _ = stochastic_block_model([30, 30], 0.1, 0.02, seed=5)
        assert g1.num_edges == g2.num_edges
        np.testing.assert_array_equal(g1.src, g2.src)

    def test_sbm_validation(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10, 10], p_in=1.5, p_out=0.1)

    def test_erdos_renyi_degree(self):
        g = erdos_renyi(500, avg_degree=10, seed=0)
        assert 6 < g.num_edges / g.num_nodes < 14

    def test_barabasi_albert_power_law_hubs(self):
        g = barabasi_albert(300, attach=2, seed=0)
        degrees = g.in_degrees()
        assert degrees.max() > 4 * np.median(degrees[degrees > 0])

    def test_ring_graph_structure(self):
        g = ring_graph(10)
        np.testing.assert_array_equal(g.in_degrees(), np.full(10, 2))

    def test_star_graph_structure(self):
        g = star_graph(6)
        assert g.num_nodes == 7
        assert g.in_degrees()[0] == 6

    @given(st.integers(2, 6), st.integers(10, 40), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_sbm_block_sizes_respected(self, num_blocks, block_size, seed):
        graph, blocks = stochastic_block_model(
            [block_size] * num_blocks, p_in=0.1, p_out=0.02, seed=seed
        )
        assert graph.num_nodes == num_blocks * block_size
        assert len(np.unique(blocks)) == num_blocks
        # every edge endpoint must be a valid node id
        if graph.num_edges:
            assert graph.src.max() < graph.num_nodes
            assert graph.dst.max() < graph.num_nodes
