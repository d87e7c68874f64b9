"""The per-node pruned serving walk: exact rows, and work tracks the miss set.

:meth:`repro.serving.LocalExecutor.compute` probes the embedding cache node
by node — a hit is a leaf, a miss expands to its complete in-neighbourhood —
and builds its blocks from the graph's in-edge index; the shard workers
(:func:`repro.sample.inference.distributed_restricted_logits`) walk the same
way, each over the nodes it owns, so the walk contract is tested with the
backend as one more input.  The ``forward_layer`` / cache hooks need the
workers in this address space (``local``, ``distributed``); ``mp`` runs the
black-box half.  Under test:

* served rows stay **bit-identical** to the eval-mode full-graph forward on
  adversarial generated graphs (isolated seeds, self-loops, parallel edges, a
  hub), for every conv family, with no cache, a roomy cache, a cache of a
  few rows (evictions between and inside bursts) and a cache of one row
  (every hidden insert evicts), across a model update and a feature-store
  replacement;
* a warm node's subtree is never rebuilt because a cold node shares its
  burst (the splice), and no ``(layer, node)`` activation is ever computed
  twice while it is cached;
* the counters mean what the docs say: every probe is one hit or one miss,
  ``frontier_layers`` sums to ``batches``, ``fast_path_batches`` counts the
  all-cached bursts;
* what only a sharded walk has: every seed on one shard, a rank that owns no
  node of a level (it joins each allgather and publishes nothing), and every
  rank reporting the same ``input_layer``.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.core import DistributedGraph
from repro.datasets import make_sbm_dataset
from repro.distributed import run_distributed
from repro.graph import Graph
from repro.graph.mfg import MFGBlock, block_from_in_edges
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import NeighborSampler
from repro.sample.inference import distributed_restricted_logits
from repro.serving import EmbeddingCache, ServingConfig, create_server
from repro.store import DenseStore
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed
from mfg_helpers import ISOLATED, SOURCE_ONLY, adversarial_graph, assert_same_block

FEATURE_DIM = 6
NUM_CLASSES = 3
HIDDEN = 8

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


#: the hooks (a wrapped ``forward_layer``, a patched cache probe) see the
#: workers of these backends; ``mp`` workers are other processes
ONE_ADDRESS_SPACE = ("local", "distributed")
BACKENDS = ONE_ADDRESS_SPACE + ("mp",)


def _serve(backend, model, graph, features, *, assignment=None, world=2, **config):
    """An unstarted server of ``backend``; the sharded ones over ``assignment``
    (default: ``partition_graph`` into ``world`` parts)."""
    if backend == "mp" and "fork" not in mp.get_all_start_methods():
        pytest.skip("mp serving backend requires the fork start method")
    if backend != "local":
        if assignment is None:
            assignment = partition_graph(graph, world, seed=0)
        assignment = np.asarray(assignment)
        graph = create_shards(graph, PartitionBook(assignment, int(assignment.max()) + 1))
    config = ServingConfig(backend=backend, window_ms=0.0, **config)
    return create_server(model, graph, features, config)


def _worker_caches(stats) -> list:
    """Each worker's ``embedding_cache`` section (the local server is its own one worker)."""
    if stats["workers"] is None:
        return [stats["embedding_cache"]]
    return [worker["embedding_cache"] for worker in stats["workers"]]


def _count_probes(monkeypatch):
    """Record ``(rows probed, rows found)`` of every ``lookup_partial`` call, any cache."""
    probed = []
    inner = EmbeddingCache.lookup_partial

    def lookup_partial(self, layer, node_ids):
        found, rows = inner(self, layer, node_ids)
        probed.append((len(node_ids), int(found.sum())))
        return found, rows

    monkeypatch.setattr(EmbeddingCache, "lookup_partial", lookup_partial)
    return probed


def _two_rings() -> Graph:
    """Two 10-node rings (0..9 and 10..19) with no edge between them, plus isolated node 20."""
    ring = np.arange(10)
    src = np.concatenate([ring, (ring + 1) % 10, ring + 10, (ring + 1) % 10 + 10])
    dst = np.concatenate([(ring + 1) % 10, ring, (ring + 1) % 10 + 10, ring + 10])
    return Graph(21, src, dst)


# --------------------------------------------------------------------------- #
# the in-edge index and the block built from it
# --------------------------------------------------------------------------- #
def test_in_edge_index_is_cached_and_built_at_start():
    graph = adversarial_graph()
    features = np.zeros((graph.num_nodes, FEATURE_DIM), dtype=np.float32)
    assert graph._in_edge_index is None
    with create_server(_make_model("sage-mean"), graph, features):
        index = graph._in_edge_index
        assert index is not None  # paid by start(), not by the first request
    assert graph.in_edge_index() is index
    np.testing.assert_array_equal(index[None].degrees(np.arange(graph.num_nodes)),
                                  graph.in_degrees())


#: hub + isolated + source-only + body; one in-degree-0 node; only in-degree-0 nodes
DST_SETS = {
    "mixed": [0, 1, 3, 7, 8, 21, 39],
    "single-empty": [2],
    "all-empty": ISOLATED + [SOURCE_ONLY],
    "every-node": list(range(40)),
}


def test_block_from_in_edges_matches_the_mask_built_block():
    """The bucket walk equals the whole-graph construction: mask the edges
    into the destinations, relabel, list them in ``(dst, src)`` order."""
    graph = adversarial_graph()
    dst_nodes = np.array(DST_SETS["mixed"])
    block = block_from_in_edges(graph.in_edge_index(), dst_nodes)
    keep = np.isin(graph.dst, dst_nodes)
    src_nodes = np.union1d(graph.src[keep], dst_nodes)
    src = np.searchsorted(src_nodes, graph.src[keep])
    dst = np.searchsorted(dst_nodes, graph.dst[keep])
    order = np.lexsort((src, dst))
    expected = MFGBlock(src_nodes, dst_nodes, {None: (src[order], dst[order])},
                        np.searchsorted(src_nodes, dst_nodes))
    assert_same_block(block, expected)


@pytest.mark.parametrize("dst_set", list(DST_SETS))
@pytest.mark.parametrize("hetero", [False, True], ids=["homogeneous", "hetero"])
def test_block_from_in_edges_matches_full_fanout_sampling(hetero, dst_set):
    """The one builder equals what ``fanout=-1`` sampling compacts, relation by relation."""
    graph = adversarial_graph()
    if hetero:
        # Three relations over the shuffled edge list: two interleaved halves
        # (parallel edges and self-loops land in both) and one with no edge.
        none = np.empty(0, dtype=np.int64)
        graph = Graph.from_relations(
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
    assert_same_block(block, expected)
    if dst_set == "all-empty":
        assert block.num_src_nodes == len(dst_nodes)  # the destinations themselves, no edge
        np.testing.assert_array_equal(block.src_nodes, dst_nodes)


# --------------------------------------------------------------------------- #
# (a) differential parity on adversarial inputs
# --------------------------------------------------------------------------- #
#: a hidden-layer row of the widest model is 32 bytes: room for about five rows
TINY_BUDGET = 160
#: exactly one hidden-layer row: every hidden insert evicts the row before it
ONE_ROW_BUDGET = 32

CACHE_CONFIGS = {
    "no-cache": dict(byte_budget=None),
    "64MiB": dict(byte_budget=64 << 20),
    "few-rows": dict(byte_budget=TINY_BUDGET),
    "one-row": dict(byte_budget=ONE_ROW_BUDGET),
}

#: every conv family locally; the sharded walks over 2 and 3 shards for one of each
PARITY_CELLS = [("local", 1, kind) for kind in ("sage-mean", "sage-max", "gat", "fused-gat")] + [
    (backend, world, kind)
    for backend in ("distributed", "mp")
    for world in (2, 3)
    for kind in ("sage-mean", "gat")
]


@pytest.mark.parametrize("cache", list(CACHE_CONFIGS))
@pytest.mark.parametrize(
    "backend,world,kind", PARITY_CELLS, ids=[f"{b}{w}-{k}" for b, w, k in PARITY_CELLS]
)
def test_rows_bit_identical_on_adversarial_graph(backend, world, kind, cache):
    graph = adversarial_graph()
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
    # round-robin ownership: every neighbourhood straddles every shard
    assignment = np.arange(graph.num_nodes) % world
    with _serve(
        backend, model, graph, store, assignment=assignment, **CACHE_CONFIGS[cache]
    ) as server:

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
    if cache == "no-cache":
        assert stats["embedding_cache"] is None
        assert stats["frontier_layers"] == {0: stats["batches"]}
        return
    caches = _worker_caches(stats)
    assert len(caches) == world
    assert [c["invalidations"] for c in caches] == [2] * world  # the update and the replace
    assert stats["embedding_cache"]["hits"] > 0
    if cache in ("few-rows", "one-row"):
        # the all-nodes sweep overflows every worker's budget inside a single burst
        budget = CACHE_CONFIGS[cache]["byte_budget"]
        assert all(c["current_bytes"] <= budget for c in caches)
        assert sum(c["evictions"] for c in caches) > graph.num_nodes
    if cache == "one-row":
        # at most one hidden row (or two 12-byte logits rows) survives a burst
        assert all(c["rows"] <= 2 for c in caches)


@pytest.mark.parametrize("cache", list(CACHE_CONFIGS))
def test_coalesced_overlapping_requests_bit_identical(cache):
    """Requests that share and repeat ids, merged into one batch by the window."""
    graph = adversarial_graph()
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_layer_walk_stops_at_a_middle_level(backend):
    """Depth 3: a burst can bottom out at level 1 or 2, not only at 0 or the logits."""
    dataset = _sbm_dataset(150, p_in=0.08)
    model = _make_model("sage-mean", num_layers=3)
    reference = _reference(model, dataset.graph, dataset.features)
    with _serve(backend, model, dataset.graph, dataset.features, byte_budget=64 << 20) as server:
        for ids in _zipf_bursts(dataset.num_nodes, 60, 4):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
        frontier = server.stats()["frontier_layers"]
    assert set(frontier) <= {0, 1, 2, 3}
    assert frontier.get(1, 0) + frontier.get(2, 0) > 0


# --------------------------------------------------------------------------- #
# (b) the splice: a warm node is a leaf even beside a cold one
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_cold_seed_does_not_drag_a_warm_seed_back_to_features(backend):
    # A = 0 lives in the first ring, B = 15 in the second, so B's subtree and
    # A's are disjoint; odd and even nodes live on different shards, so B's
    # level-1 rows (14, 15, 16) are computed on both
    graph = _two_rings()
    features = np.random.default_rng(2).standard_normal((21, FEATURE_DIM)).astype(np.float32)
    model = _make_model("sage-mean")
    reference = _reference(model, graph, features)
    a, b = 0, 15
    with _serve(
        backend, model, graph, features, assignment=np.arange(21) % 2, byte_budget=64 << 20
    ) as server:
        np.testing.assert_array_equal(server.predict([a]), reference[[a]])
        before = server.stats()["embedding_cache"]
        seen = _count_blocks(model)
        np.testing.assert_array_equal(server.predict([a, b]), reference[[a, b]])
        stats = server.stats()
    assert stats["frontier_layers"] == {0: 2}  # B reached the raw features
    assert stats["fast_path_batches"] == 0
    after = stats["embedding_cache"]  # summed over the workers: a node is probed by its owner only
    assert after["hits"] - before["hits"] == 1  # A's logits row: a leaf, nothing below it probed
    assert after["misses"] - before["misses"] == 1 + 3  # B, then B and its two ring neighbours
    if backend not in ONE_ADDRESS_SPACE:
        return
    for _, block in seen:
        assert block.src_nodes.min() >= 10  # nothing of A's ring, on any rank
    # conv layer -> the rows computed, over all ranks: B's level-1 rows, then B
    computed = {0: [], 1: []}
    for layer, block in seen:
        computed[layer] += block.dst_nodes.tolist()
    assert {layer: sorted(rows) for layer, rows in computed.items()} == {0: [14, 15, 16], 1: [b]}


# --------------------------------------------------------------------------- #
# (c) never twice, (d) the counters add up
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_no_activation_is_computed_twice_and_counters_add_up(backend, monkeypatch):
    dataset = _sbm_dataset(300, p_in=0.06)
    model = _make_model("sage-mean")
    reference = _reference(model, dataset.graph, dataset.features)
    bursts = _zipf_bursts(dataset.num_nodes, 200, 8)
    assignment = partition_graph(dataset.graph, 2, seed=0)
    with _serve(
        backend, model, dataset.graph, dataset.features, assignment=assignment, byte_budget=1 << 30
    ) as server:
        probed = _count_probes(monkeypatch)
        seen = _count_blocks(model)
        served, expected_fast = set(), 0
        for ids in bursts:
            expected_fast += set(ids.tolist()) <= served
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
            served.update(ids.tolist())
        stats = server.stats()
    caches = _worker_caches(stats)
    for cache_stats in caches:
        assert cache_stats["evictions"] == 0
        assert cache_stats["insertions"] == cache_stats["rows"] > 0  # nothing cached twice
    # (d)
    assert stats["batches"] == len(bursts)
    assert sum(stats["frontier_layers"].values()) == stats["batches"]
    assert 0 < expected_fast < len(bursts)
    assert stats["fast_path_batches"] == expected_fast
    assert stats["frontier_layers"][model.num_layers] == expected_fast
    if backend not in ONE_ADDRESS_SPACE:
        return
    # (c) per worker, every destination row the model computed was new to its cache
    owner = np.zeros(dataset.num_nodes, dtype=np.int64) if backend == "local" else assignment
    rows_computed = np.zeros(len(caches), dtype=np.int64)
    for _, block in seen:
        assert len(set(owner[block.dst_nodes])) == 1  # a worker computes rows it owns
        rows_computed[owner[block.dst_nodes[0]]] += block.num_dst_nodes
    assert rows_computed.tolist() == [c["insertions"] for c in caches]
    # every probed (layer, node) is exactly one hit or one miss, partial coverage included
    total = stats["embedding_cache"]
    assert total["hits"] + total["misses"] == sum(n for n, _ in probed)
    assert total["hits"] == sum(f for _, f in probed)
    assert any(0 < f < n for n, f in probed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cacheless_server_always_computes_from_the_features(backend):
    dataset = _sbm_dataset(120, p_in=0.1)
    model = _make_model("sage-mean")
    reference = _reference(model, dataset.graph, dataset.features)
    with _serve(backend, model, dataset.graph, dataset.features) as server:
        for ids in _zipf_bursts(dataset.num_nodes, 10, 4):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["frontier_layers"] == {0: 10}
    assert stats["fast_path_batches"] == 0


# --------------------------------------------------------------------------- #
# (e) what only a sharded walk has
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["distributed", "mp"])
def test_every_seed_on_one_shard(backend):
    """The other shard owns no seed: it returns no row but computes the halo rows it owns."""
    graph = adversarial_graph()
    features = np.random.default_rng(6).standard_normal((graph.num_nodes, FEATURE_DIM))
    features = features.astype(np.float32)
    model = _make_model("gat")
    reference = _reference(model, graph, features)
    assignment = np.arange(graph.num_nodes) % 2
    evens = [0, 4, 8, 22]
    with _serve(
        backend, model, graph, features, assignment=assignment, byte_budget=64 << 20
    ) as server:
        for _ in ("cold", "warm"):
            np.testing.assert_array_equal(server.predict(evens), reference[evens])
        stats = server.stats()
    assert stats["frontier_layers"] == {0: 1, model.num_layers: 1}
    odd_shard = stats["workers"][1]
    assert odd_shard["embedding_cache"]["insertions"] > 0  # level-1 rows of odd neighbours
    assert odd_shard["comm"]["halo_bytes_received"] == 0  # and it read no activation row


def test_a_rank_owning_nothing_of_a_level_joins_the_walk_and_every_rank_agrees():
    """Ring A on rank 0, ring B on rank 1, the isolated node on rank 2: most
    requests leave some rank without a single node of some level.  It still
    runs every allgather (or the others would hang), publishes nothing, and
    returns the same ``input_layer`` as everyone else."""
    graph = _two_rings()
    features = np.random.default_rng(8).standard_normal((21, FEATURE_DIM)).astype(np.float32)
    # One model for every rank: an eval-mode forward is stateless, and ranks
    # building their own would interleave draws from the one global generator.
    model = _make_model("sage-mean")
    reference = _reference(model, graph, features)
    assignment = np.repeat([0, 1, 2], [10, 10, 1])
    shards = create_shards(graph, PartitionBook(assignment, 3))
    # (seeds, the level every rank must report)
    script = [([0], 0), ([0], 2), ([2], 0), ([1], 1), ([0, 15], 0), ([20, 15], 0), ([20], 2)]

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm)
        cache = EmbeddingCache(1 << 20)
        out = []
        for seeds, _ in script:
            owned, rows, input_layer = distributed_restricted_logits(
                dist_graph, model, features, np.array(seeds), cache=cache
            )
            published = [key for key in comm._keys() if key.startswith("serve/")]
            out.append((owned, rows, input_layer, published))
        return out

    per_rank = run_distributed(worker, 3, worker_args=shards, timeout_s=30.0).results
    for step, (seeds, expected_layer) in enumerate(script):
        answers = [per_rank[rank][step] for rank in range(3)]
        assert [layer for _, _, layer, _ in answers] == [expected_layer] * 3
        for rank, (owned, rows, _, published) in enumerate(answers):
            mine = sorted(s for s in seeds if assignment[s] == rank)
            assert owned.tolist() == mine
            if mine:
                np.testing.assert_array_equal(rows, reference[mine])
            else:
                assert rows is None
            if not mine:  # the shards are disconnected: no seed here, no node of any level
                assert published == []
