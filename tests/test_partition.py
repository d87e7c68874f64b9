"""Tests for the partitioner, partition book, and shard construction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import ogbn_mag_mini, ogbn_papers_mini, ogbn_products_mini
from repro.graph import Graph, star_graph
from repro.partition import (
    PartitionBook,
    balance_ratio,
    create_shards,
    edge_cut,
    partition_graph,
    partition_sizes,
)


@st.composite
def adversarial_graphs(draw):
    """Small graphs with isolated nodes, several components, self-loops,
    parallel edges, a hub, or no edges at all."""
    num_linked = draw(st.integers(1, 30))
    num_isolated = draw(st.integers(0, 5))
    node = st.integers(0, num_linked - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    edges += [(v, v) for v in draw(st.lists(node, max_size=5))]  # self-loops
    edges += edges[: draw(st.integers(0, len(edges)))]  # parallel edges
    if draw(st.booleans()):  # a hub joined both ways to every linked node
        hub = draw(node)
        edges += [(hub, v) for v in range(num_linked)] + [(v, hub) for v in range(num_linked)]
    # Keep only edges inside one of 1-3 contiguous id ranges: several components.
    component = np.arange(num_linked) * draw(st.integers(1, 3)) // num_linked
    edges = [(s, d) for s, d in edges if component[s] == component[d]]
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    return Graph(max(num_linked + num_isolated, 2), src, dst)


class TestPartitioner:
    def test_assignment_covers_all_partitions(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 4)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}

    def test_balance_within_tolerance(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 4)
        assert balance_ratio(assignment, 4) <= 1.15

    def test_metis_like_beats_random_on_edge_cut(self, sbm_graph):
        good = partition_graph(sbm_graph, 3, method="metis", seed=0)
        bad = partition_graph(sbm_graph, 3, method="random", seed=0)
        assert edge_cut(sbm_graph, good) < edge_cut(sbm_graph, bad)

    def test_contiguous_on_block_ordered_graph(self, sbm_graph):
        # SBM node ids are grouped by block, so contiguous ranges cut few edges.
        contiguous = partition_graph(sbm_graph, 3, method="contiguous")
        random = partition_graph(sbm_graph, 3, method="random", seed=1)
        assert edge_cut(sbm_graph, contiguous) < edge_cut(sbm_graph, random)

    def test_single_partition(self, tiny_graph):
        assignment = partition_graph(tiny_graph, 1)
        assert edge_cut(tiny_graph, assignment) == 0

    def test_more_parts_than_nodes_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            partition_graph(tiny_graph, 100)

    def test_unknown_method_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            partition_graph(tiny_graph, 2, method="bogus")

    def test_star_graph_stays_balanced(self):
        g = star_graph(40)
        assignment = partition_graph(g, 4)
        sizes = partition_sizes(assignment, 4)
        assert sizes.min() >= 1
        assert balance_ratio(assignment, 4) <= 1.3

    def test_deterministic_given_seed(self, sbm_graph):
        a1 = partition_graph(sbm_graph, 4, seed=3)
        a2 = partition_graph(sbm_graph, 4, seed=3)
        np.testing.assert_array_equal(a1, a2)

    # No pinned example count: the loaded hypothesis profile decides
    # (``HYPOTHESIS_PROFILE=nightly`` widens the search).
    @given(adversarial_graphs(), st.data())
    @settings(deadline=None)
    def test_every_partition_nonempty_property(self, graph, data):
        num_parts = data.draw(st.one_of(st.just(graph.num_nodes),
                                        st.integers(2, graph.num_nodes)), label="num_parts")
        seed = data.draw(st.integers(0, 500), label="seed")
        assignment = partition_graph(graph, num_parts, seed=seed)
        sizes = partition_sizes(assignment, num_parts)
        assert sizes.min() >= 1
        assert sizes.sum() == graph.num_nodes
        np.testing.assert_array_equal(partition_graph(graph, num_parts, seed=seed), assignment)
        unseeded = partition_graph(graph, num_parts, seed=None)
        assert partition_sizes(unseeded, num_parts).min() >= 1


#: edge-cut ratios (cut edges / edges) of the region-growing + Kernighan–Lin
#: partitioner this one replaced, at seed 0; the spectral partitioner must not cut more
PRIOR_CUT_RATIO = {
    "products": {2: 0.1194, 3: 0.1831, 4: 0.2822, 8: 0.4248},
    "papers": {2: 0.1466, 3: 0.1348, 4: 0.2071, 8: 0.3368},
}


@pytest.fixture(scope="module")
def benchmark_graphs():
    """The two graphs the benchmark workloads partition."""
    return {"products": ogbn_products_mini(1.0).graph, "papers": ogbn_papers_mini(2.0).graph}


class TestPartitionQuality:
    @pytest.mark.parametrize("num_parts", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["products", "papers"])
    def test_cut_and_balance(self, benchmark_graphs, name, num_parts):
        graph = benchmark_graphs[name]
        assignment = partition_graph(graph, num_parts, seed=0)
        assert edge_cut(graph, assignment) / graph.num_edges <= PRIOR_CUT_RATIO[name][num_parts]
        assert balance_ratio(assignment, num_parts) <= 1.05
        # A SAR worker's work scales with its in-edges; measured, not constrained.
        in_edges = np.bincount(assignment[graph.dst], minlength=num_parts)
        assert in_edges.max() / (graph.num_edges / num_parts) <= 1.07


class TestPartitionBook:
    def test_roundtrip_global_local(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 4)
        book = PartitionBook(assignment, 4)
        global_ids = np.arange(sbm_graph.num_nodes)
        parts, locals_ = book.to_local(global_ids)
        for p in range(4):
            nodes = global_ids[parts == p]
            back = book.to_global(p, locals_[parts == p])
            np.testing.assert_array_equal(back, nodes)

    def test_partition_sizes_match_assignment(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 3)
        book = PartitionBook(assignment, 3)
        np.testing.assert_array_equal(book.partition_sizes(),
                                      partition_sizes(assignment, 3))

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            PartitionBook(np.zeros(10, dtype=np.int64), 2)

    def test_scatter_to_global_roundtrip(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 4)
        book = PartitionBook(assignment, 4)
        values = np.random.randn(sbm_graph.num_nodes, 3).astype(np.float32)
        pieces = [values[book.nodes_of(p)] for p in range(4)]
        np.testing.assert_array_equal(book.scatter_to_global(pieces), values)

    def test_scatter_validates_shapes(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 2)
        book = PartitionBook(assignment, 2)
        with pytest.raises(ValueError):
            book.scatter_to_global([np.zeros((1, 2))])
        with pytest.raises(ValueError):
            book.scatter_to_global([np.zeros((1, 2)), np.zeros((1, 2))])

    def test_partition_of(self, sbm_graph):
        assignment = partition_graph(sbm_graph, 3)
        book = PartitionBook(assignment, 3)
        ids = np.array([0, 5, 10])
        np.testing.assert_array_equal(book.partition_of(ids), assignment[ids])


class TestShards:
    def _shards(self, graph, num_parts=4):
        assignment = partition_graph(graph, num_parts, seed=0)
        book = PartitionBook(assignment, num_parts)
        return book, create_shards(graph, book)

    def test_every_edge_appears_in_exactly_one_block(self, sbm_graph):
        book, shards = self._shards(sbm_graph)
        total = sum(block.num_edges for shard in shards for block in shard.blocks)
        assert total == sbm_graph.num_edges

    def test_block_indices_within_bounds(self, sbm_graph):
        book, shards = self._shards(sbm_graph)
        for shard in shards:
            for q, block in enumerate(shard.blocks):
                if block.num_edges == 0:
                    continue
                assert block.dst_local.max() < shard.num_local_nodes
                assert block.src_index.max() < block.num_required_src
                assert block.required_src_local.max() < book.partition_sizes()[q]

    def test_local_in_degrees_match_graph(self, sbm_graph):
        book, shards = self._shards(sbm_graph)
        degrees = sbm_graph.in_degrees()
        for shard in shards:
            np.testing.assert_array_equal(shard.local_in_degrees,
                                          degrees[shard.global_node_ids])

    def test_aggregation_matrix_matches_global(self, sbm_graph):
        """Summing block aggregations reproduces the full-graph aggregation."""
        book, shards = self._shards(sbm_graph)
        x = np.random.randn(sbm_graph.num_nodes, 5).astype(np.float32)
        expected = sbm_graph.adjacency() @ x
        for shard in shards:
            acc = np.zeros((shard.num_local_nodes, 5), dtype=np.float32)
            for q, block in enumerate(shard.blocks):
                if block.num_edges == 0:
                    continue
                remote = x[book.nodes_of(q)][block.required_src_local]
                acc += block.plan().aggregate_sum(remote)
            np.testing.assert_allclose(acc, expected[shard.global_node_ids],
                                       rtol=1e-4, atol=1e-4)

    def test_in_edge_index_is_the_graphs_buckets_keyed_by_none(self, sbm_graph):
        """A shard's one index, relation ``None``, lists every local
        destination's complete in-neighbourhood in global edge order: the
        single-machine index's bucket of that node."""
        book, shards = self._shards(sbm_graph, num_parts=3)
        full = sbm_graph.in_edge_index()[None]
        for shard in shards:
            indexes = shard.in_edge_index()
            assert list(indexes) == [None]
            assert shard.in_edge_index() is indexes
            index = indexes[None]
            for local, node in enumerate(shard.global_node_ids):
                mine = slice(index.indptr[local], index.indptr[local + 1])
                want = slice(full.indptr[node], full.indptr[node + 1])
                np.testing.assert_array_equal(index.eids[mine], full.eids[want])
                np.testing.assert_array_equal(index.src[mine], full.src[want])

    def test_halo_size_counts_remote_rows_only(self, sbm_graph):
        book, shards = self._shards(sbm_graph)
        for shard in shards:
            manual = sum(b.num_required_src for q, b in enumerate(shard.blocks)
                         if q != shard.rank)
            assert shard.halo_size == manual

    def test_node_data_sliced_per_partition(self, sbm_graph):
        sbm_graph.set_ndata("feat", np.arange(sbm_graph.num_nodes * 2).reshape(-1, 2))
        book, shards = self._shards(sbm_graph)
        for shard in shards:
            np.testing.assert_array_equal(
                shard.node_data["feat"], sbm_graph.ndata["feat"][shard.global_node_ids]
            )

    def test_weighted_aggregation_validation(self, sbm_graph):
        _, shards = self._shards(sbm_graph)
        block = shards[0].local_block
        values = np.ones((block.num_required_src, 1, 2))
        with pytest.raises(ValueError):
            block.plan().u_mul_e_sum_sorted(values, np.ones((block.num_edges + 1, 1)))

    def test_hetero_shards_preserve_relation_edges(self):
        relations = {
            "a": (np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0])),
            "b": (np.array([4, 5]), np.array([0, 1])),
        }
        hg = Graph.from_relations(6, relations)
        assignment = np.array([0, 0, 1, 1, 2, 2])
        book = PartitionBook(assignment, 3)
        shards = create_shards(hg, book)
        for relation, (src, _) in relations.items():
            total = sum(
                blocks.num_edges
                for shard in shards
                for blocks in shard.relation_blocks[relation]
            )
            assert total == len(src)


def _shard_grid_digest(shards) -> str:
    sha = hashlib.sha256()
    for shard in shards:
        for name, blocks in shard.relation_blocks.items():
            sha.update(repr(name).encode())
            sha.update(np.asarray(shard.relation_in_degrees[name], dtype="<i8").tobytes())
            for b in blocks:
                sha.update(np.asarray([b.src_rank, b.dst_rank, b.num_dst], dtype="<i8").tobytes())
                for ids in (b.required_src_local, b.src_index, b.dst_local, b.edge_pos):
                    sha.update(np.asarray(ids, dtype="<i8").tobytes())
        for key in sorted(shard.node_data):
            sha.update(key.encode())
            sha.update(np.ascontiguousarray(shard.node_data[key]).tobytes())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("kind, num_parts, expected", [
    ("relational", 2, "51d9f335944312fb"),
    ("relational", 3, "aab0a5ef557b644b"),
    ("homogeneous", 2, "53cb38bae3f50ac7"),
    ("homogeneous", 3, "fffac75cf8f90f25"),
])
def test_shard_grids_are_pinned(kind, num_parts, expected):
    """Every ``G_{p,q}`` block (ids, per-edge indices, global edge positions),
    the per-relation in-degrees and the node-data slices of ``mag_mini``'s
    shards are fixed: a relational graph cuts one grid per relation, its
    homogeneous union the one grid of the relation ``None`` (rebuilt without
    node data, as the union graph was pinned)."""
    dataset = ogbn_mag_mini(scale=0.2)
    dataset.attach_to_graph()
    union = Graph(dataset.graph.num_nodes, dataset.graph.src, dataset.graph.dst)
    graph = dataset.graph if kind == "relational" else union
    book = PartitionBook(partition_graph(dataset.graph, num_parts, seed=0), num_parts)
    assert _shard_grid_digest(create_shards(graph, book)) == expected
