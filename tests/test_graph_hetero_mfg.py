"""Tests for relational graphs and message-flow-graph (MFG) utilities."""

import hashlib

import numpy as np
import pytest

from repro.datasets import ogbn_mag_mini
from repro.graph import (
    Graph,
    build_mfg_pipeline,
    mfg_savings,
    required_node_counts,
)
from repro.graph.generators import ring_graph
from repro.nn.models import RGCNNet
from repro.partition import partition_graph
from repro.sample import LayerWiseInference
from repro.serving import create_server
from repro.tensor import Tensor, no_grad
from repro.training.correct_and_smooth import CorrectAndSmooth
from repro.utils.seed import set_seed
from reference_kernels import mean


@pytest.fixture
def small_hetero():
    relations = {
        "cites": (np.array([0, 1, 2]), np.array([1, 2, 3])),
        "writes": (np.array([3, 4]), np.array([0, 1])),
    }
    return Graph.from_relations(5, relations)


class TestRelationalGraph:
    def test_counts(self, small_hetero):
        assert small_hetero.relation_names == ["cites", "writes"]
        assert small_hetero.num_edges == 5
        assert len(small_hetero.relation_edges["cites"][0]) == 3

    def test_unknown_relation_raises(self, small_hetero):
        with pytest.raises(KeyError, match="cites"):
            small_hetero.relation_plan("bogus")

    def test_requires_at_least_one_relation(self):
        with pytest.raises(ValueError):
            Graph.from_relations(3, {})

    def test_rejects_a_relation_named_none(self):
        edges = (np.array([0]), np.array([1]))
        for relations in ({None: edges}, {"a": edges, None: edges}):
            with pytest.raises(ValueError, match="none named None"):
                Graph.from_relations(3, relations)

    def test_rejects_out_of_range_edges_naming_the_relation(self):
        with pytest.raises(ValueError, match=r"relations\['b'\]\.dst"):
            Graph.from_relations(3, {"a": ([0], [1]), "b": ([1], [3])})

    def test_rejects_mismatched_lengths_naming_the_relation(self):
        with pytest.raises(ValueError, match=r"relations\['b'\]\.src and dst"):
            Graph.from_relations(3, {"a": ([0], [1]), "b": ([0, 1], [2])})

    def test_repr_names_the_relations(self, small_hetero):
        assert repr(small_hetero) == \
            "Graph(num_nodes=5, num_edges=5, relations=['cites', 'writes'])"
        assert repr(Graph(2, [0], [1])) == "Graph(num_nodes=2, num_edges=1)"

    def test_src_dst_are_the_union_in_relation_order(self, small_hetero):
        np.testing.assert_array_equal(small_hetero.src, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(small_hetero.dst, [1, 2, 3, 0, 1])
        swapped = Graph.from_relations(5, {name: small_hetero.relation_edges[name]
                                           for name in ("writes", "cites")})
        np.testing.assert_array_equal(swapped.src, [3, 4, 0, 1, 2])
        np.testing.assert_array_equal(swapped.dst, [0, 1, 1, 2, 3])
        homogeneous = Graph(5, small_hetero.src, small_hetero.dst)
        assert list(homogeneous.relation_edges) == [None]
        assert homogeneous.relation_edges[None][0] is homogeneous.src

    def test_in_degrees_sum_the_relations(self, small_hetero):
        per_relation = [np.bincount(dst, minlength=5)
                        for _, dst in small_hetero.relation_edges.values()]
        np.testing.assert_array_equal(small_hetero.in_degrees(), sum(per_relation))

    def test_relation_plan_mean_normalized(self, small_hetero):
        ones = np.ones((small_hetero.num_nodes, 1), dtype=np.float32)
        rows = small_hetero.relation_plan("cites").aggregate_mean(ones).reshape(-1)
        present = np.bincount(small_hetero.relation_edges["cites"][1], minlength=5) > 0
        np.testing.assert_allclose(rows[present], 1.0)
        np.testing.assert_allclose(rows[~present], 0.0)

    def test_relation_plan_matches_the_relations_own_graph(self, small_hetero, rng):
        """Each relation's plan aggregates exactly as a graph of that relation
        alone; on a homogeneous graph ``plan()`` is the cached plan of ``None``."""
        x = rng.standard_normal((5, 3)).astype(np.float32)
        for name, (src, dst) in small_hetero.relation_edges.items():
            np.testing.assert_array_equal(
                small_hetero.relation_plan(name).aggregate_mean(x),
                Graph(5, src, dst).plan().aggregate_mean(x))
        homogeneous = Graph(5, small_hetero.src, small_hetero.dst)
        assert homogeneous.plan() is homogeneous.relation_plan(None)
        assert homogeneous.plan() is homogeneous.plan()

    def test_union_reads_like_the_homogeneous_graph(self, sbm_graph):
        """Degrees, the normalized adjacency Correct & Smooth propagates over
        and the partitioner's assignment see the relational graph as the
        homogeneous graph of its ``src``/``dst`` union."""
        half = sbm_graph.num_edges // 2
        relational = Graph.from_relations(sbm_graph.num_nodes, {
            "a": (sbm_graph.src[:half], sbm_graph.dst[:half]),
            "b": (sbm_graph.src[half:], sbm_graph.dst[half:]),
            "c": (sbm_graph.dst[::3], sbm_graph.src[::3]),
        })
        union = Graph(relational.num_nodes, relational.src, relational.dst)
        np.testing.assert_array_equal(relational.in_degrees(), union.in_degrees())
        np.testing.assert_array_equal(relational.out_degrees(), union.out_degrees())
        np.testing.assert_array_equal(relational.adjacency(normalization="sym").toarray(),
                                      union.adjacency(normalization="sym").toarray())
        np.testing.assert_array_equal(partition_graph(relational, 3, seed=0),
                                      partition_graph(union, 3, seed=0))

    def test_ndata_validation(self, small_hetero):
        small_hetero.set_ndata("feat", np.zeros((5, 2)))
        with pytest.raises(ValueError):
            small_hetero.set_ndata("bad", np.zeros((4, 2)))

    def test_homogeneous_only_calls_reject_a_relational_graph(self, small_hetero):
        """Calls that read or rebuild the relation ``None`` fail loudly instead
        of treating the union as one homogeneous edge set."""
        for rebuild in (small_hetero.add_self_loops, small_hetero.to_bidirected,
                        small_hetero.coalesce):
            with pytest.raises(ValueError, match="relations"):
                rebuild()
        z = Tensor(np.ones((5, 2), dtype=np.float32))
        for aggregate in (lambda: small_hetero.plan(),
                          lambda: small_hetero.aggregate_neighbors(z),
                          lambda: small_hetero.gat_aggregate(z, z[:, :1], z[:, :1])):
            with pytest.raises(KeyError, match="'cites', 'writes'"):
                aggregate()

    def test_create_server_serves_a_relational_graph(self, small_hetero):
        """The local server walks every relation's in-edges: R-GCN rows are
        the full-graph forward's."""
        set_seed(0)
        model = RGCNNet(2, 4, 3, small_hetero.relation_names, num_layers=2).eval()
        features = np.arange(10, dtype=np.float32).reshape(5, 2)
        with no_grad():
            reference = model(small_hetero, Tensor(features)).data
        with create_server(model, small_hetero, features) as server:
            np.testing.assert_array_equal(server.predict([4, 0, 2]), reference[[4, 0, 2]])


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def _mag_path_arrays(path: str):
    """The arrays one single-machine path computes on ``mag_mini``'s relational graph."""
    dataset = ogbn_mag_mini(scale=0.2)
    graph = dataset.graph
    if path.startswith("partition-k"):
        return [partition_graph(graph, int(path[-1]), seed=0)]

    def model():
        set_seed(0)
        return RGCNNet(dataset.feature_dim, 16, dataset.num_classes, graph.relation_names,
                       num_layers=2, dropout=0.0, use_batch_norm=False)

    def forward_backward(target, rows):
        net = model()
        x = Tensor(rows, requires_grad=True)
        out = net(target, x)
        mean(out ** 2).backward()
        return [out.data, x.grad] + [p.grad for p in net.parameters()]

    if path == "rgcn-full":
        return forward_backward(graph, dataset.features)
    if path == "rgcn-mfg":
        pipeline = build_mfg_pipeline(graph, dataset.train_indices()[::5], 2)
        return forward_backward(pipeline, pipeline.gather_inputs(dataset.features))
    logits = LayerWiseInference(model().eval(), graph, batch_size=64).run(dataset.features)
    if path == "layerwise":
        return [logits]
    return [CorrectAndSmooth()(graph, logits, dataset.labels, dataset.train_mask)]


@pytest.mark.parametrize("path, expected", [
    ("partition-k2", "9e8af18f6b9ab70b"),
    ("partition-k3", "851dc398b48180ab"),
    ("rgcn-full", "3f6381845f36e327"),
    ("rgcn-mfg", "f2464ebcbfa7c92e"),
    ("layerwise", "763b94f61622e7aa"),
    ("correct-and-smooth", "54d10f27b45c3eee"),
])
def test_relational_paths_are_pinned(path, expected):
    """Partition assignments of the ``src``/``dst`` union, R-GCN logits and
    gradients (full graph and MFG blocks), layer-wise inference logits and
    Correct & Smooth output on ``mag_mini`` are fixed bit for bit."""
    assert _digest(_mag_path_arrays(path)) == expected


class TestMessageFlowGraph:
    def test_masks_grow_backwards_from_seeds(self):
        # Path graph 0→1→2→3→4 (messages flow along edges).
        g = Graph(5, [0, 1, 2, 3], [1, 2, 3, 4])
        node_lists = build_mfg_pipeline(g, [4], num_layers=2).node_lists
        np.testing.assert_array_equal(node_lists[2], [4])
        np.testing.assert_array_equal(node_lists[1], [3, 4])
        np.testing.assert_array_equal(node_lists[0], [2, 3, 4])

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
            build_mfg_pipeline(tiny_graph, [99], num_layers=2)
        with pytest.raises(ValueError):
            build_mfg_pipeline(tiny_graph, [0], num_layers=0)
