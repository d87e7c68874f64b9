"""The local executor's per-node pruned walk: exact rows, and work tracks the miss set.

:meth:`repro.serving.LocalExecutor.compute` probes the embedding cache node
by node — a hit is a leaf, a miss expands to its complete in-neighbourhood —
and builds its blocks from the graph's in-edge index.  Under test:

* served rows stay **bit-identical** to the eval-mode full-graph forward on
  adversarial generated graphs (isolated seeds, self-loops, parallel edges, a
  hub), for every conv family, with no cache, a roomy cache, a cache of a few
  rows (evictions between and inside bursts) and the frequency gate, across a
  model update and a feature-store replacement;
* a warm node's subtree is never rebuilt because a cold node shares its
  burst (the splice), and no ``(layer, node)`` activation is ever computed
  twice while it is cached;
* the counters mean what the docs say: every probe is one hit or one miss,
  ``frontier_layers`` sums to ``batches``, ``fast_path_batches`` counts the
  all-cached bursts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_sbm_dataset
from repro.graph import Graph, HeteroGraph
from repro.graph.mfg import block_from_in_edges, build_mfg_pipeline
from repro.nn.models import GATNet, GraphSageNet
from repro.sample import NeighborSampler
from repro.serving import ServingConfig, create_server
from repro.store import DenseStore
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

FEATURE_DIM = 6
NUM_CLASSES = 3
HIDDEN = 8

#: nodes of :func:`_adversarial_graph` with no edge at all / out-edges only.
ISOLATED = [1, 2]
SOURCE_ONLY = 3


def _adversarial_graph(num_nodes: int = 40) -> Graph:
    """Random body + a hub adjacent to it + self-loops + parallel edges + in-degree-0 nodes.

    The edge list is shuffled, so the original edge order is far from
    destination-sorted — per-destination reduction order is what must survive.
    """
    rng = np.random.default_rng(5)
    body = np.arange(4, num_nodes)
    src = [rng.choice(body, size=3 * len(body)), np.full(5, SOURCE_ONLY)]
    dst = [rng.choice(body, size=3 * len(body)), body[:5]]
    src += [np.zeros(len(body), dtype=np.int64), body]  # hub 0 <-> every body node
    dst += [body, np.zeros(len(body), dtype=np.int64)]
    src += [body[::4], np.array([0])]  # self-loops, the hub's included
    dst += [body[::4], np.array([0])]
    src, dst = np.concatenate(src), np.concatenate(dst)
    src = np.concatenate([src, src[:20], src[:20]])  # parallel edges, twice over
    dst = np.concatenate([dst, dst[:20], dst[:20]])
    order = rng.permutation(len(src))
    return Graph(num_nodes, src[order], dst[order])


def _sbm_dataset(num_nodes: int, p_in: float):
    return make_sbm_dataset(
        name="pruning-sbm",
        num_nodes=num_nodes,
        num_classes=NUM_CLASSES,
        feature_dim=FEATURE_DIM,
        p_in=p_in,
        p_out=0.01,
    )


def _make_model(kind: str, num_layers: int = 2):
    set_seed(0)
    if kind in ("gat", "fused-gat"):
        model = GATNet(
            FEATURE_DIM,
            4,
            NUM_CLASSES,
            num_layers=num_layers,
            num_heads=2,
            dropout=0.0,
            fused=kind == "fused-gat",
        )
    else:
        model = GraphSageNet(
            FEATURE_DIM,
            HIDDEN,
            NUM_CLASSES,
            num_layers=num_layers,
            dropout=0.5,
            aggregator=kind.split("-")[1],
        )
    model.eval()
    return model


def _reference(model, graph, features):
    with no_grad():
        return model(graph, Tensor(features)).data


def _count_blocks(model):
    """Record every block ``model.forward_layer`` is handed, as ``(layer, block)``."""
    seen = []
    inner = model.forward_layer

    def forward_layer(index, graph, x):
        seen.append((index, graph))
        return inner(index, graph, x)

    model.forward_layer = forward_layer
    return seen


def _zipf_bursts(num_nodes: int, bursts: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    weights = 1.0 / np.arange(1, num_nodes + 1) ** 1.1
    ranks = rng.choice(num_nodes, size=(bursts, size), p=weights / weights.sum())
    return rng.permutation(num_nodes)[ranks]  # which node holds which popularity rank


# --------------------------------------------------------------------------- #
# the in-edge index and the block built from it
# --------------------------------------------------------------------------- #
def test_in_edge_index_is_cached_and_built_at_start():
    graph = _adversarial_graph()
    features = np.zeros((graph.num_nodes, FEATURE_DIM), dtype=np.float32)
    assert graph._in_edge_index is None
    with create_server(_make_model("sage-mean"), graph, features):
        index = graph._in_edge_index
        assert index is not None  # paid by start(), not by the first request
    assert graph.in_edge_index() is index
    np.testing.assert_array_equal(index.degrees(np.arange(graph.num_nodes)), graph.in_degrees())


def _assert_same_block(block, expected):
    """Same row spaces, and per destination the same sources in the same order."""
    np.testing.assert_array_equal(block.src_nodes, expected.src_nodes)
    np.testing.assert_array_equal(block.dst_nodes, expected.dst_nodes)
    np.testing.assert_array_equal(block.dst_in_src, expected.dst_in_src)
    if hasattr(block, "relation_edges"):
        assert block.relation_names == expected.relation_names
        pairs = [(block.relation_edges[r], expected.relation_edges[r]) for r in block.relation_names]
    else:
        pairs = [((block.src, block.dst), (expected.src, expected.dst))]
    for (src, dst), (exp_src, exp_dst) in pairs:
        assert len(src) == len(exp_src)
        for row in range(block.num_dst_nodes):
            # each destination's sources, in original edge order
            np.testing.assert_array_equal(src[dst == row], exp_src[exp_dst == row])


#: hub + isolated + source-only + body; one in-degree-0 node; only in-degree-0 nodes
DST_SETS = {
    "mixed": [0, 1, 3, 7, 8, 21, 39],
    "single-empty": [2],
    "all-empty": ISOLATED + [SOURCE_ONLY],
    "every-node": list(range(40)),
}


def test_block_from_in_edges_matches_the_mask_built_block():
    graph = _adversarial_graph()
    dst_nodes = np.array(DST_SETS["mixed"])
    block = block_from_in_edges(graph.in_edge_index(), dst_nodes)
    _assert_same_block(block, build_mfg_pipeline(graph, dst_nodes, 1).layer_block(0))


@pytest.mark.parametrize("dst_set", list(DST_SETS))
@pytest.mark.parametrize("hetero", [False, True], ids=["homogeneous", "hetero"])
def test_block_from_in_edges_matches_full_fanout_sampling(hetero, dst_set):
    """The one builder equals what ``fanout=-1`` sampling compacts, relation by relation."""
    graph = _adversarial_graph()
    if hetero:
        # Three relations over the shuffled edge list: two interleaved halves
        # (parallel edges and self-loops land in both) and one with no edge.
        none = np.empty(0, dtype=np.int64)
        graph = HeteroGraph(
            graph.num_nodes,
            {
                "even": (graph.src[::2], graph.dst[::2]),
                "odd": (graph.src[1::2], graph.dst[1::2]),
                "empty": (none, none),
            },
        )
    dst_nodes = np.array(DST_SETS[dst_set])
    block = block_from_in_edges(graph.in_edge_index(), dst_nodes)
    expected = NeighborSampler(graph, [-1], seed=0).sample(dst_nodes).layer_block(0)
    assert type(block) is type(expected)
    _assert_same_block(block, expected)
    if dst_set == "all-empty":
        assert block.num_src_nodes == len(dst_nodes)  # the destinations themselves, no edge
        np.testing.assert_array_equal(block.src_nodes, dst_nodes)


# --------------------------------------------------------------------------- #
# (a) differential parity on adversarial inputs
# --------------------------------------------------------------------------- #
#: a hidden-layer row of the widest model is 32 bytes: room for about five rows
TINY_BUDGET = 160

CACHE_CONFIGS = {
    "no-cache": dict(byte_budget=None),
    "64MiB": dict(byte_budget=64 << 20),
    "few-rows": dict(byte_budget=TINY_BUDGET),
    "frequency": dict(byte_budget=TINY_BUDGET, cache_admission="frequency"),
}


@pytest.mark.parametrize("cache", list(CACHE_CONFIGS))
@pytest.mark.parametrize("kind", ["sage-mean", "sage-max", "gat", "fused-gat"])
def test_rows_bit_identical_on_adversarial_graph(kind, cache):
    graph = _adversarial_graph()
    rng = np.random.default_rng(3)
    features = rng.standard_normal((graph.num_nodes, FEATURE_DIM)).astype(np.float32)
    store = DenseStore(features)
    model = _make_model(kind)
    everything = list(range(graph.num_nodes))
    requests = [
        [7],  # a single node
        ISOLATED,  # in-degree 0, no edge at all
        [SOURCE_ONLY, 0],  # in-degree 0 beside the hub
        [9, 9, 4, 9],  # duplicates inside one request
        everything,
        [7, 12],  # partly warm after the sweep (when anything survived it)
        everything[::-1],
    ]
    config = ServingConfig(window_ms=0.0, **CACHE_CONFIGS[cache])
    with create_server(model, graph, store, config) as server:

        def check():
            reference = _reference(model, graph, store.gather(None))
            for ids in requests:
                np.testing.assert_array_equal(server.predict(ids), reference[ids])

        check()

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data * 0.5 + 0.125

        server.update(perturb)
        check()
        store.replace(rng.standard_normal(features.shape).astype(np.float32))
        check()
        stats = server.stats()
    assert sum(stats["frontier_layers"].values()) == stats["batches"] == 3 * len(requests)
    cache_stats = stats["embedding_cache"]
    if cache == "no-cache":
        assert cache_stats is None
        assert stats["frontier_layers"] == {0: stats["batches"]}
    else:
        assert cache_stats["invalidations"] == 2  # the update and the replace
        assert cache_stats["hits"] > 0
    if cache in ("few-rows", "frequency"):
        # the all-nodes sweep overflows the budget inside a single burst
        assert cache_stats["current_bytes"] <= TINY_BUDGET
        assert cache_stats["evictions"] + cache_stats["rejected_admissions"] > graph.num_nodes


@pytest.mark.parametrize("cache", list(CACHE_CONFIGS))
def test_coalesced_overlapping_requests_bit_identical(cache):
    """Requests that share and repeat ids, merged into one batch by the window."""
    graph = _adversarial_graph()
    features = np.random.default_rng(4).standard_normal((graph.num_nodes, FEATURE_DIM))
    features = features.astype(np.float32)
    model = _make_model("gat")
    reference = _reference(model, graph, features)
    burst = ([5, 6], [6, 7, 5], ISOLATED, [0], [6, 6])
    config = ServingConfig(window_ms=50.0, **CACHE_CONFIGS[cache])
    with create_server(model, graph, features, config) as server:
        for _ in range(3):
            futures = [server.predict_async(ids) for ids in burst]
            for future, ids in zip(futures, burst):
                np.testing.assert_array_equal(future.result(30), reference[ids])
        stats = server.stats()
    assert stats["batches"] < stats["served_requests"]  # some burst did coalesce
    assert sum(stats["frontier_layers"].values()) == stats["batches"]


def test_three_layer_walk_stops_at_a_middle_level():
    """Depth 3: a burst can bottom out at level 1 or 2, not only at 0 or the logits."""
    dataset = _sbm_dataset(150, p_in=0.08)
    model = _make_model("sage-mean", num_layers=3)
    reference = _reference(model, dataset.graph, dataset.features)
    config = ServingConfig(window_ms=0.0, byte_budget=64 << 20)
    with create_server(model, dataset.graph, dataset.features, config) as server:
        for ids in _zipf_bursts(dataset.num_nodes, 60, 4):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
        frontier = server.stats()["frontier_layers"]
    assert set(frontier) <= {0, 1, 2, 3}
    assert frontier.get(1, 0) + frontier.get(2, 0) > 0


# --------------------------------------------------------------------------- #
# (b) the splice: a warm node is a leaf even beside a cold one
# --------------------------------------------------------------------------- #
def test_cold_seed_does_not_drag_a_warm_seed_back_to_features():
    # two rings of 10 nodes, no edge between them: A = 0 lives in the first,
    # B = 15 in the second, so B's subtree and A's are disjoint
    ring = np.arange(10)
    src = np.concatenate([ring, (ring + 1) % 10, ring + 10, (ring + 1) % 10 + 10])
    dst = np.concatenate([(ring + 1) % 10, ring, (ring + 1) % 10 + 10, ring + 10])
    graph = Graph(20, src, dst)
    features = np.random.default_rng(2).standard_normal((20, FEATURE_DIM)).astype(np.float32)
    model = _make_model("sage-mean")
    reference = _reference(model, graph, features)
    a, b = 0, 15
    config = ServingConfig(window_ms=0.0, byte_budget=64 << 20)
    with create_server(model, graph, features, config) as server:
        np.testing.assert_array_equal(server.predict([a]), reference[[a]])
        before = server.stats()["embedding_cache"]
        seen = _count_blocks(model)
        np.testing.assert_array_equal(server.predict([a, b]), reference[[a, b]])
        stats = server.stats()
    assert [layer for layer, _ in seen] == [0, 1]
    for _, block in seen:
        assert block.src_nodes.min() >= 10  # nothing of A's ring
    assert seen[-1][1].dst_nodes.tolist() == [b]
    assert stats["frontier_layers"] == {0: 2}  # B reached the raw features
    assert stats["fast_path_batches"] == 0
    after = stats["embedding_cache"]
    assert after["hits"] - before["hits"] == 1  # A's logits row: a leaf, nothing below it probed
    assert after["misses"] - before["misses"] == 1 + 3  # B, then B and its two ring neighbours


# --------------------------------------------------------------------------- #
# (c) never twice, (d) the counters add up
# --------------------------------------------------------------------------- #
def test_no_activation_is_computed_twice_and_counters_add_up():
    dataset = _sbm_dataset(300, p_in=0.06)
    model = _make_model("sage-mean")
    reference = _reference(model, dataset.graph, dataset.features)
    bursts = _zipf_bursts(dataset.num_nodes, 200, 8)
    config = ServingConfig(window_ms=0.0, byte_budget=1 << 30)
    with create_server(model, dataset.graph, dataset.features, config) as server:
        cache = server.executor.cache
        probed = []  # (rows probed, rows found) per lookup_partial call
        inner = cache.lookup_partial

        def lookup_partial(layer, node_ids):
            found, rows = inner(layer, node_ids)
            probed.append((len(node_ids), int(found.sum())))
            return found, rows

        cache.lookup_partial = lookup_partial
        seen = _count_blocks(model)
        served, expected_fast = set(), 0
        for ids in bursts:
            expected_fast += set(ids.tolist()) <= served
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
            served.update(ids.tolist())
        stats = server.stats()
    cache_stats = stats["embedding_cache"]
    assert cache_stats["evictions"] == 0
    # (c) every destination row the model computed was new to the cache
    assert sum(block.num_dst_nodes for _, block in seen) == cache_stats["insertions"]
    assert cache_stats["insertions"] == cache_stats["rows"]
    # every probed (layer, node) is exactly one hit or one miss, partial coverage included
    assert cache_stats["hits"] + cache_stats["misses"] == sum(n for n, _ in probed)
    assert cache_stats["hits"] == sum(f for _, f in probed)
    assert any(0 < f < n for n, f in probed)
    # (d)
    assert stats["batches"] == len(bursts)
    assert sum(stats["frontier_layers"].values()) == stats["batches"]
    assert 0 < expected_fast < len(bursts)
    assert stats["fast_path_batches"] == expected_fast
    assert stats["frontier_layers"][model.num_layers] == expected_fast


def test_cacheless_server_always_computes_from_the_features():
    dataset = _sbm_dataset(120, p_in=0.1)
    model = _make_model("sage-mean")
    reference = _reference(model, dataset.graph, dataset.features)
    config = ServingConfig(window_ms=0.0)
    with create_server(model, dataset.graph, dataset.features, config) as server:
        for ids in _zipf_bursts(dataset.num_nodes, 10, 4):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["frontier_layers"] == {0: 10}
    assert stats["fast_path_batches"] == 0
