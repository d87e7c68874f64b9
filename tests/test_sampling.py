"""Tests for the mini-batch neighbour-sampling subsystem (repro.sample).

The two load-bearing contracts:

* ``fanout=-1`` sampling reproduces the full-neighbourhood MFG pipeline
  **bit-identically** (node orderings, edge order, logits);
* sampling is counter-based deterministic — batches depend only on
  ``(seed, epoch, batch, layer)``, never on threads, iteration order, or how
  the nodes are split across callers.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.distributed.plane import ArenaCommunicator, SharedPlane
from repro.graph import Graph, build_mfg_pipeline
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.partition import PartitionBook, create_shards
from repro.sample import (
    DistributedNeighborSampler,
    MiniBatchDataLoader,
    NeighborSampler,
    NeighborSamplingConfig,
    sample_in_edges,
)
from repro.tensor import Tensor
from repro.tensor import edge_plan as edge_plan_mod
from repro.training.trainer import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.seed import mix_seed, set_seed
from mfg_helpers import adversarial_graph, assert_same_block


@pytest.fixture
def star_with_isolated() -> Graph:
    """Nodes 1..4 feed node 0; node 5 is isolated; node 6 has one in-edge."""
    src = np.array([1, 2, 3, 4, 2])
    dst = np.array([0, 0, 0, 0, 6])
    return Graph(7, src, dst)


# --------------------------------------------------------------------------- #
# the in-edge index is the graph's, sorted once
# --------------------------------------------------------------------------- #
def test_samplers_share_the_graphs_cached_in_edge_index(star_with_isolated):
    graph = star_with_isolated
    first = NeighborSampler(graph, [2], seed=0)
    second = NeighborSampler(graph, [-1, 3], seed=1)
    assert first._indexes is second._indexes is graph.in_edge_index()

    hetero = Graph.from_relations(7, {"a": (graph.src, graph.dst), "b": (graph.dst, graph.src)})
    first = NeighborSampler(hetero, [2], seed=0)
    second = NeighborSampler(hetero, [{"a": -1, "b": 0}], seed=1)
    assert first._indexes is second._indexes is hetero.in_edge_index()
    assert list(hetero.in_edge_index()) == hetero.relation_names
    for name, index in hetero.in_edge_index().items():
        np.testing.assert_array_equal(
            index.degrees(np.arange(7)),
            np.bincount(hetero.relation_edges[name][1], minlength=7)
        )


# --------------------------------------------------------------------------- #
# sample_in_edges
# --------------------------------------------------------------------------- #
class TestSampleInEdges:
    def test_fanout_minus_one_takes_full_neighbourhood(self, star_with_isolated):
        index = star_with_isolated.in_edge_index()[None]
        sel = sample_in_edges(index, np.array([0, 5, 6]), -1, False, key=7)
        np.testing.assert_array_equal(np.sort(index.eids[sel]), [0, 1, 2, 3, 4])

    def test_fanout_zero_and_isolated_nodes_sample_nothing(self, star_with_isolated):
        index = star_with_isolated.in_edge_index()[None]
        assert sample_in_edges(index, np.array([0]), 0, False, key=7).size == 0
        assert sample_in_edges(index, np.array([5]), 3, False, key=7).size == 0
        assert sample_in_edges(index, np.array([5]), 3, True, key=7).size == 0

    def test_fanout_larger_than_degree_without_replacement(self, star_with_isolated):
        index = star_with_isolated.in_edge_index()[None]
        sel = sample_in_edges(index, np.array([0, 6]), 100, False, key=7)
        np.testing.assert_array_equal(np.sort(index.eids[sel]), [0, 1, 2, 3, 4])

    def test_without_replacement_caps_and_dedupes(self, sbm_graph):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        degrees = index.degrees(nodes)
        sel = sample_in_edges(index, nodes, 3, False, key=11)
        eids = index.eids[sel]
        assert len(np.unique(eids)) == len(eids)
        per_dst = np.bincount(index.dst[sel], minlength=sbm_graph.num_nodes)
        np.testing.assert_array_equal(per_dst, np.minimum(degrees, 3))

    def test_with_replacement_draws_exactly_fanout(self, sbm_graph):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        sel = sample_in_edges(index, nodes, 5, True, key=11)
        per_dst = np.bincount(index.dst[sel], minlength=sbm_graph.num_nodes)
        nonzero = index.degrees(nodes) > 0
        np.testing.assert_array_equal(per_dst[nonzero], 5)
        # Draws come from each node's own candidate list.
        assert np.all(index.dst[sel] == sbm_graph.dst[index.eids[sel]])

    @pytest.mark.parametrize("fanout, replace", [(4, False), (4, True), (-1, False)])
    def test_returns_positions_grouped_by_destination_in_node_order(self, sbm_graph,
                                                                    fanout, replace):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.random.default_rng(3).permutation(60)
        sel = sample_in_edges(index, nodes, fanout, replace, key=3)
        # the destinations' runs follow ``nodes``: each run's node comes later in it
        runs = index.dst[sel][np.r_[True, np.diff(index.dst[sel]) != 0]]
        assert len(runs) == len(np.unique(runs))
        position = np.empty(sbm_graph.num_nodes, dtype=np.int64)
        position[nodes] = np.arange(len(nodes))
        assert np.all(np.diff(position[runs]) > 0)

    @pytest.mark.parametrize("replace", [False, True])
    def test_split_invariance(self, sbm_graph, replace):
        """Sampling node subsets separately equals sampling them together.

        This is the property the cooperative distributed sampler stands on:
        any partition of the destinations over workers draws the same edges.
        """
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        together = sample_in_edges(index, nodes, 4, replace, key=99)
        split = np.concatenate([
            sample_in_edges(index, nodes[::2], 4, replace, key=99),
            sample_in_edges(index, nodes[1::2], 4, replace, key=99),
        ])
        np.testing.assert_array_equal(
            np.sort(index.eids[together]), np.sort(index.eids[split])
        )

    def test_keys_decorrelate(self, sbm_graph):
        index = sbm_graph.in_edge_index()[None]
        nodes = np.arange(sbm_graph.num_nodes)
        a = sample_in_edges(index, nodes, 3, False, key=mix_seed(0, 1))
        b = sample_in_edges(index, nodes, 3, False, key=mix_seed(0, 2))
        assert not np.array_equal(index.eids[a], index.eids[b])


# --------------------------------------------------------------------------- #
# NeighborSampler — homogeneous
# --------------------------------------------------------------------------- #
class TestNeighborSampler:
    def test_full_fanout_matches_mfg_pipeline_bitwise(self, sbm_graph, rng):
        seeds = np.sort(rng.choice(sbm_graph.num_nodes, 12, replace=False))
        mfg = build_mfg_pipeline(sbm_graph, seeds, 2)
        sampled = NeighborSampler(sbm_graph, [-1, -1], seed=5).sample(seeds, 3, 4)
        for layer in range(2):
            assert_same_block(sampled.layer_block(layer), mfg.layer_block(layer))

    @pytest.mark.parametrize("model_cls", ["sage", "gat"])
    def test_full_fanout_logits_bit_identical(self, sbm_graph, rng, model_cls):
        seeds = np.sort(rng.choice(sbm_graph.num_nodes, 10, replace=False))
        features = rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32)
        mfg = build_mfg_pipeline(sbm_graph, seeds, 2)
        sampled = NeighborSampler(sbm_graph, [-1, -1], seed=0).sample(seeds)
        set_seed(0)
        if model_cls == "sage":
            model = GraphSageNet(8, 8, 3, num_layers=2, dropout=0.0, use_batch_norm=False)
        else:
            model = GATNet(8, 4, 3, num_layers=2, num_heads=2, dropout=0.0,
                           use_batch_norm=False)
        ref = model(mfg, Tensor(mfg.gather_inputs(features))).data
        got = model(sampled, Tensor(sampled.gather_inputs(features))).data
        np.testing.assert_array_equal(ref, got)

    @pytest.mark.parametrize("kind", ["sage-mean", "sage-max", "gat", "gat-fused", "rgcn"])
    def test_full_fanout_gradients_bit_identical_on_adversarial_graph(self, kind):
        """Forward and backward, bit for bit: the sampler lists a block's
        edges in edge-id order, the MFG builder destination by destination,
        and the edge plans both run through must not tell them apart."""
        graph = adversarial_graph()
        if kind == "rgcn":
            none = np.empty(0, dtype=np.int64)
            graph = Graph.from_relations(graph.num_nodes, {
                "even": (graph.src[::2], graph.dst[::2]),
                "odd": (graph.src[1::2], graph.dst[1::2]),
                "empty": (none, none),
            })
        features = np.random.default_rng(3).standard_normal((graph.num_nodes, 6))
        seeds = np.array([0, 1, 3, 7, 8, 21, 39])  # hub, isolated, source-only, body
        runs = []
        for pipeline in (build_mfg_pipeline(graph, seeds, 2),
                         NeighborSampler(graph, [-1, -1], seed=0).sample(seeds)):
            set_seed(0)
            if kind == "rgcn":
                model = RGCNNet(6, 8, 3, graph.relation_names, num_layers=2,
                                dropout=0.0, use_batch_norm=False)
            elif kind.startswith("gat"):
                model = GATNet(6, 4, 3, num_layers=2, num_heads=2, dropout=0.0,
                               use_batch_norm=False, fused=kind == "gat-fused")
            else:
                model = GraphSageNet(6, 8, 3, num_layers=2, dropout=0.0, use_batch_norm=False,
                                     aggregator=kind.split("-")[1])
            x = Tensor(pipeline.gather_inputs(features).astype(np.float32), requires_grad=True)
            logits = model(pipeline, x)
            (logits * logits).sum().backward()
            runs.append([logits.data, x.grad] + [p.grad for p in model.parameters()])
        for mfg, sampled in zip(*runs):
            np.testing.assert_array_equal(sampled, mfg)

    def test_sampled_pipeline_runs_and_respects_fanout(self, sbm_graph, rng):
        seeds = np.sort(rng.choice(sbm_graph.num_nodes, 20, replace=False))
        pipeline = NeighborSampler(sbm_graph, [3, 2], seed=1).sample(seeds)
        np.testing.assert_array_equal(pipeline.output_nodes, seeds)
        for layer, fanout in enumerate([3, 2]):
            block = pipeline.layer_block(layer)
            degrees = np.bincount(block.dst, minlength=block.num_dst_nodes)
            assert degrees.max() <= fanout
        features = rng.standard_normal((sbm_graph.num_nodes, 8)).astype(np.float32)
        model = GraphSageNet(8, 8, 3, num_layers=2, dropout=0.0, use_batch_norm=False)
        logits = model(pipeline, Tensor(pipeline.gather_inputs(features)))
        assert logits.shape == (len(seeds), 3)

    def test_sampled_mean_normalizes_by_sampled_degree(self, star_with_isolated):
        graph = star_with_isolated
        features = np.zeros((7, 1), dtype=np.float32)
        features[1:5, 0] = [10.0, 20.0, 30.0, 40.0]
        pipeline = NeighborSampler(graph, [2], seed=3).sample([0])
        block = pipeline.layer_block(0)
        assert block.num_edges == 2
        plan = block.plan()
        out = plan.aggregate_mean(pipeline.gather_inputs(features))
        sampled_sources = block.src_nodes[block.src]
        expected = features[sampled_sources, 0].mean()
        np.testing.assert_allclose(out[0, 0], expected)

    def test_isolated_seed_gets_zero_aggregation(self, star_with_isolated):
        pipeline = NeighborSampler(star_with_isolated, [2, 2], seed=0).sample([5])
        features = np.ones((7, 4), dtype=np.float32)
        model = GraphSageNet(4, 4, 2, num_layers=2, dropout=0.0, use_batch_norm=False)
        logits = model(pipeline, Tensor(pipeline.gather_inputs(features)))
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits.data))

    def test_same_epoch_batch_reproduces_and_others_differ(self, sbm_graph, rng):
        seeds = np.sort(rng.choice(sbm_graph.num_nodes, 30, replace=False))
        sampler = NeighborSampler(sbm_graph, [3, 3], seed=7)
        a = sampler.sample(seeds, epoch=2, batch_index=1)
        b = sampler.sample(seeds, epoch=2, batch_index=1)
        c = sampler.sample(seeds, epoch=3, batch_index=1)
        for layer in range(2):
            np.testing.assert_array_equal(a.layer_block(layer).src,
                                          b.layer_block(layer).src)
        assert any(
            not np.array_equal(a.layer_block(layer).src_nodes,
                               c.layer_block(layer).src_nodes)
            or not np.array_equal(a.layer_block(layer).src, c.layer_block(layer).src)
            for layer in range(2)
        )

    def test_seed_defaults_to_global_stream(self, sbm_graph):
        set_seed(42)
        a = NeighborSampler(sbm_graph, [3], seed=None)
        set_seed(42)
        b = NeighborSampler(sbm_graph, [3], seed=None)
        assert a.seed == b.seed

    def test_validation_errors(self, sbm_graph):
        with pytest.raises(ValueError, match="fanouts"):
            NeighborSampler(sbm_graph, [])
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(sbm_graph, [-2])
        with pytest.raises(ValueError, match="relational Graph"):
            NeighborSampler(sbm_graph, [{"rel": 3}])
        sampler = NeighborSampler(sbm_graph, [3])
        with pytest.raises(ValueError, match="at least one"):
            sampler.sample(np.array([], dtype=np.int64))


# --------------------------------------------------------------------------- #
# one fanout check for both samplers
# --------------------------------------------------------------------------- #
def _fanout_entry_points():
    graph = adversarial_graph()
    hetero = Graph.from_relations(graph.num_nodes, {"a": (graph.src, graph.dst),
                                                    "b": (graph.dst, graph.src)})
    (shard,) = create_shards(graph, PartitionBook(np.zeros(graph.num_nodes, dtype=np.int64), 1))
    comm = ArenaCommunicator(0, 1, SharedPlane(threading, 1), timeout_s=1.0)
    return {
        "graph": lambda spec: NeighborSampler(graph, [spec, 2]).fanouts[0],
        "hetero": lambda spec: NeighborSampler(hetero, [spec, 2]).fanouts[0]["a"],
        "hetero-mapping": lambda spec: NeighborSampler(hetero, [{"a": spec, "b": 1}]).fanouts[0]["a"],
        "distributed": lambda spec: DistributedNeighborSampler(shard, comm, [spec, 2]).fanouts[0],
    }


@pytest.mark.parametrize("entry", list(_fanout_entry_points()))
@pytest.mark.parametrize("spec", [2.7, "3", True, np.float64(2.0), -2, None],
                         ids=["float", "str", "bool", "np-float", "below-minus-one", "none"])
def test_fanout_check_rejects_non_integers_everywhere(entry, spec):
    """2.7 is not silently fanout 2 on one machine and an error in a distributed run."""
    with pytest.raises(ValueError, match="fanout"):
        _fanout_entry_points()[entry](spec)


@pytest.mark.parametrize("entry", list(_fanout_entry_points()))
@pytest.mark.parametrize("spec", [-1, 0, 3, np.int64(3), np.int32(-1)])
def test_fanout_check_accepts_integers_everywhere(entry, spec):
    fanout = _fanout_entry_points()[entry](spec)
    assert type(fanout) is int and fanout == spec


# --------------------------------------------------------------------------- #
# the draws are pinned: sampled edges at a fixed (seed, epoch, batch)
# --------------------------------------------------------------------------- #
def _sampled_edges_digest(pipeline, order_free: bool = False) -> str:
    sha = hashlib.sha256()
    for block in pipeline.blocks:
        for name, (src, dst) in block.relation_edges.items():
            sha.update(repr(name).encode())
            pairs = np.stack([block.src_nodes[src], block.dst_nodes[dst]])
            if order_free:
                pairs = pairs[:, np.lexsort(pairs[::-1])]
            for ids in pairs:
                sha.update(np.asarray(ids, dtype="<i8").tobytes())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("kind, replace, expected, order_free", [
    ("graph", False, "41b8b6cae73e46d0", "7f732209c2a2d6e3"),
    ("graph", True, "94df636e5280c7f8", "f89068b617216e99"),
    ("hetero", False, "e1d61c1b37ed16c8", "8dac3e79a3ab704d"),
    ("hetero", True, "3ee8ed112e8d0e3f", "230f8ce624e4091f"),
])
def test_sampled_edges_are_pinned(kind, replace, expected, order_free):
    """Global ``(src, dst)`` edges per layer and relation, in block order, are
    fixed by ``(seed, epoch, batch)``: a Graph draws under the bare layer key,
    each named relation under the layer key xor ``splitmix64(rel_index)``.

    ``order_free`` digests the same pairs sorted by ``(src, dst)``.  It read
    the same when blocks listed their edges in edge-id order, so listing
    them in ``(dst, src)`` order changed no drawn edge."""
    graph = adversarial_graph(60)
    if kind == "hetero":
        graph = Graph.from_relations(60, {
            "fwd": (graph.src, graph.dst), "rev": (graph.dst, graph.src),
            "self": (np.arange(0, 60, 3), np.arange(0, 60, 3)),
        })
    sampler = NeighborSampler(graph, [3, 2], replace=replace, seed=2024)
    pipeline = sampler.sample(np.arange(0, 60, 7), epoch=3, batch_index=5)
    assert _sampled_edges_digest(pipeline) == expected
    assert _sampled_edges_digest(pipeline, order_free=True) == order_free


# --------------------------------------------------------------------------- #
# NeighborSampler — heterogeneous
# --------------------------------------------------------------------------- #
@pytest.fixture
def hetero_graph(rng) -> Graph:
    num_nodes = 40
    relations = {
        "dense": (rng.integers(0, num_nodes, 160), rng.integers(0, num_nodes, 160)),
        "sparse": (rng.integers(0, num_nodes, 30), rng.integers(0, num_nodes, 30)),
        "empty": (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    }
    return Graph.from_relations(num_nodes, relations)


class TestHeteroSampling:
    def test_full_fanout_matches_hetero_mfg_pipeline(self, hetero_graph, rng):
        seeds = np.sort(rng.choice(hetero_graph.num_nodes, 6, replace=False))
        mfg = build_mfg_pipeline(hetero_graph, seeds, 2)
        sampled = NeighborSampler(hetero_graph, [-1, -1], seed=0).sample(seeds)
        for layer in range(2):
            assert_same_block(sampled.layer_block(layer), mfg.layer_block(layer))

    def test_per_relation_fanouts_and_empty_relation(self, hetero_graph, rng):
        seeds = np.sort(rng.choice(hetero_graph.num_nodes, 8, replace=False))
        fanouts = [{"dense": 2, "sparse": -1, "empty": 3}, 1]
        pipeline = NeighborSampler(hetero_graph, fanouts, seed=4).sample(seeds)
        block = pipeline.layer_block(0)
        dense_dst = block.relation_edges["dense"][1]
        degrees = np.bincount(dense_dst, minlength=block.num_dst_nodes)
        assert degrees.max() <= 2
        assert block.relation_edges["empty"][0].size == 0
        features = rng.standard_normal((hetero_graph.num_nodes, 6)).astype(np.float32)
        model = RGCNNet(6, 8, 3, hetero_graph.relation_names, num_layers=2,
                        dropout=0.0, use_batch_norm=False)
        logits = model(pipeline, Tensor(pipeline.gather_inputs(features)))
        assert logits.shape == (len(seeds), 3)

    def test_unknown_relation_rejected(self, hetero_graph):
        with pytest.raises(KeyError, match="Unknown relations"):
            NeighborSampler(hetero_graph, [{"nope": 2}])

    def test_partial_fanout_mapping_rejected(self, hetero_graph):
        """Omitting a relation must be explicit (0), never a silent skip."""
        with pytest.raises(ValueError, match="missing"):
            NeighborSampler(hetero_graph, [{"dense": 2}])


# --------------------------------------------------------------------------- #
# MiniBatchDataLoader
# --------------------------------------------------------------------------- #
class TestMiniBatchDataLoader:
    def _loader(self, graph, seeds, **kwargs):
        sampler = NeighborSampler(graph, [3, 3], seed=kwargs.pop("seed", 9))
        return MiniBatchDataLoader(sampler, seeds, **kwargs)

    def test_batch_count_and_drop_last(self, sbm_graph):
        seeds = np.arange(50)
        assert len(self._loader(sbm_graph, seeds, batch_size=20)) == 3
        assert len(self._loader(sbm_graph, seeds, batch_size=20, drop_last=True)) == 2
        with pytest.raises(ValueError, match="drop_last"):
            self._loader(sbm_graph, np.arange(5), batch_size=10, drop_last=True)

    def test_epoch_covers_every_seed_exactly_once(self, sbm_graph):
        seeds = np.arange(45)
        loader = self._loader(sbm_graph, seeds, batch_size=20)
        seen = np.concatenate(
            [loader.batch_seed_ids(1, index) for index in range(len(loader))]
        )
        np.testing.assert_array_equal(np.sort(seen), seeds)

    def test_shuffle_determinism_and_epoch_variation(self, sbm_graph):
        seeds = np.arange(40)
        loader_a = self._loader(sbm_graph, seeds, batch_size=16)
        loader_b = self._loader(sbm_graph, seeds, batch_size=16)
        np.testing.assert_array_equal(loader_a.batch_seed_ids(5, 0),
                                      loader_b.batch_seed_ids(5, 0))
        assert not np.array_equal(loader_a.batch_seed_ids(5, 0),
                                  loader_a.batch_seed_ids(6, 0))
        unshuffled = self._loader(sbm_graph, seeds, batch_size=16, shuffle=False)
        np.testing.assert_array_equal(unshuffled.batch_seed_ids(5, 0), seeds[:16])

    @pytest.mark.parametrize("num_workers", [0, 1, 2])
    def test_prefetch_identical_to_synchronous(self, sbm_graph, num_workers):
        seeds = np.arange(60)
        reference = list(
            self._loader(sbm_graph, seeds, batch_size=16, num_workers=0).iter_epoch(2)
        )
        got = list(
            self._loader(
                sbm_graph, seeds, batch_size=16, num_workers=num_workers
            ).iter_epoch(2)
        )
        assert len(reference) == len(got) == 4
        for ref, batch in zip(reference, got):
            np.testing.assert_array_equal(ref.seeds, batch.seeds)
            for layer in range(2):
                np.testing.assert_array_equal(ref.pipeline.layer_block(layer).src,
                                              batch.pipeline.layer_block(layer).src)

    def test_resident_batches_bounded(self, sbm_graph):
        loader = self._loader(sbm_graph, np.arange(60), batch_size=6, num_workers=2)
        for _ in loader.iter_epoch(1):
            pass
        assert 1 <= loader.peak_resident_batches <= 2

    def test_worker_errors_propagate(self, sbm_graph, monkeypatch):
        loader = self._loader(sbm_graph, np.arange(30), batch_size=10, num_workers=2)

        def boom(*args, **kwargs):
            raise RuntimeError("sampler exploded")

        monkeypatch.setattr(loader.sampler, "sample_structure", boom)
        with pytest.raises(RuntimeError, match="sampler exploded"):
            list(loader.iter_epoch(1))

    def test_auto_epoch_iteration_advances(self, sbm_graph):
        loader = self._loader(sbm_graph, np.arange(32), batch_size=16)
        first = [batch.seeds for batch in loader]
        second = [batch.seeds for batch in loader]
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))


class TestLoaderFeatureFetch:
    def _loader(self, graph, **kwargs):
        sampler = NeighborSampler(graph, [3, 3], seed=9)
        return MiniBatchDataLoader(sampler, np.arange(40), batch_size=16, **kwargs)

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_prefetched_inputs_match_gather(self, sbm_graph, rng, num_workers):
        features = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        loader = self._loader(sbm_graph, num_workers=num_workers)
        loader.set_features(features)
        count = 0
        for batch in loader.iter_epoch(1):
            assert batch.inputs is not None
            np.testing.assert_array_equal(batch.inputs, batch.gather_inputs(features))
            assert batch.input_features(features) is batch.inputs
            count += 1
        assert count == len(loader)

    def test_fetch_stage_disabled_by_default_and_by_none(self, sbm_graph, rng):
        features = rng.standard_normal((sbm_graph.num_nodes, 6)).astype(np.float32)
        loader = self._loader(sbm_graph, num_workers=1)
        for batch in loader.iter_epoch(1):
            assert batch.inputs is None
            np.testing.assert_array_equal(batch.input_features(features),
                                          batch.gather_inputs(features))
        loader.set_features(features)
        assert all(b.inputs is not None for b in loader.iter_epoch(1))
        loader.set_features(None)
        assert all(b.inputs is None for b in loader.iter_epoch(1))


# --------------------------------------------------------------------------- #
# plans per block
# --------------------------------------------------------------------------- #
class TestPlanReuse:
    def test_each_block_builds_one_plan_per_relation(self, sbm_graph):
        """A batch's block builds its own plan once and every kernel reuses it;
        no plan is shared across batches, so a repeated batch builds anew."""
        sampler = NeighborSampler(sbm_graph, [-1, -1], seed=0)
        loader = MiniBatchDataLoader(sampler, np.arange(40), batch_size=20,
                                     shuffle=False, num_workers=0)

        def run_epoch(epoch):
            edge_plan_mod.reset_build_counter()
            blocks = 0
            for batch in loader.iter_epoch(epoch):
                for layer in range(2):
                    block = batch.pipeline.layer_block(layer)
                    for _ in range(2):
                        plan = block.plan()
                        plan.aggregate_sum(np.ones((block.num_src_nodes, 2), np.float32))
                        plan.aggregate_sum_t(np.ones((block.num_dst_nodes, 2), np.float32))
                    assert block.plan() is plan
                    blocks += 1
            assert blocks == 4
            return edge_plan_mod.build_counter

        assert [run_epoch(epoch) for epoch in (1, 2, 3)] == [4, 4, 4]

    def test_plan_cache_lru_eviction(self):
        cache = edge_plan_mod.PlanCache(capacity=2)
        src = np.array([0, 1])
        dst = np.array([1, 0])
        a = cache.get(src, dst, 2, 2)
        assert cache.get(src, dst, 2, 2) is a
        cache.get(src, dst, 3, 2)
        cache.get(src, dst, 4, 2)
        assert len(cache) == 2
        assert cache.get(src, dst, 2, 2) is not a  # evicted and rebuilt
        assert cache.hits == 1 and cache.misses == 4


# --------------------------------------------------------------------------- #
# trainer integration
# --------------------------------------------------------------------------- #
class TestTrainerIntegration:
    def test_sampler_requires_num_layers(self, small_dataset):
        from repro.nn.sage import SageConv

        with pytest.raises(ValueError, match="num_layers"):
            FullBatchTrainer(
                SageConv(small_dataset.feature_dim, small_dataset.num_classes),
                small_dataset,
                TrainingConfig(sampler=NeighborSamplingConfig(fanouts=(-1,))),
            )

    def test_fanouts_must_match_model_layers(self, small_dataset):
        model = GraphSageNet(small_dataset.feature_dim, 8, small_dataset.num_classes,
                             num_layers=3, dropout=0.0, use_batch_norm=False)
        config = TrainingConfig(sampler=NeighborSamplingConfig(fanouts=(3, 3)))
        with pytest.raises(ValueError, match="conv layers"):
            FullBatchTrainer(model, small_dataset, config)

    @pytest.mark.parametrize("field, value", [("num_workers", -1),
                                              ("max_resident_batches", 0)])
    def test_bad_prefetch_settings_rejected_before_any_work(self, small_dataset,
                                                            monkeypatch, field, value):
        from repro.training import trainer as trainer_mod

        def make_model(dim):
            return GraphSageNet(dim, 8, small_dataset.num_classes, num_layers=2,
                                dropout=0.0, use_batch_norm=False)

        def no_partitioning(*args, **kwargs):
            raise AssertionError("partitioned under an invalid config")

        monkeypatch.setattr(trainer_mod, "partition_graph", no_partitioning)
        config = TrainingConfig(sampler=NeighborSamplingConfig(fanouts=(3, 3), **{field: value}))
        with pytest.raises(ValueError, match=field):
            FullBatchTrainer(make_model(small_dataset.feature_dim), small_dataset, config)
        with pytest.raises(ValueError, match=field):
            DistributedTrainer(small_dataset, make_model, num_workers=2, config=config)

    @pytest.mark.slow
    def test_sampled_training_learns(self, small_dataset):
        set_seed(0)
        model = GraphSageNet(small_dataset.feature_dim, 16, small_dataset.num_classes,
                             num_layers=2, dropout=0.0, use_batch_norm=False)
        config = TrainingConfig(
            num_epochs=8, lr=0.05, seed=0,
            sampler=NeighborSamplingConfig(fanouts=(5, 5), batch_size=40),
        )
        result = FullBatchTrainer(model, small_dataset, config).train()
        assert len(result.records) == 8
        assert result.losses()[-1] < result.losses()[0]
        # Evaluation runs over the full graph and reports every split.
        assert set(result.final_accuracies) == {"train", "val", "test"}
        assert result.final_accuracies["test"] > 0.5

    @pytest.mark.slow
    def test_full_fanout_sampled_single_batch_matches_full_batch(self, small_dataset):
        """One epoch, two expressions: plain full-batch training and one
        fanout=-1 batch covering every train seed (paper Appendix B's MFG
        restriction) both average the loss over the train mask, so they
        follow the same loss trajectory — on one machine, and at 2 workers
        against the single-machine run of the same leg."""
        seeds = small_dataset.train_indices()
        common = dict(num_epochs=3, lr=0.05, seed=0, eval_every=0)
        legs = {
            "full": {},
            "sampled": dict(sampler=NeighborSamplingConfig(
                fanouts=(-1, -1), batch_size=len(seeds), shuffle=False
            )),
        }

        def make_model(dim):
            return GraphSageNet(dim, 16, small_dataset.num_classes, num_layers=2,
                                dropout=0.0, use_batch_norm=False)

        set_seed(0)
        weights = [p.data.copy() for p in make_model(small_dataset.feature_dim).parameters()]

        def with_weights(dim):
            # Worker threads share the global RNG, so the replicas' initial
            # parameters are shipped instead of re-drawn.
            model = make_model(dim)
            for param, value in zip(model.parameters(), weights):
                param.data[...] = value
            return model

        single = {
            name: FullBatchTrainer(with_weights(small_dataset.feature_dim), small_dataset,
                                   TrainingConfig(**extra, **common)).train().losses()
            for name, extra in legs.items()
        }
        np.testing.assert_allclose(single["sampled"], single["full"], rtol=1e-5, atol=1e-7)
        for name, extra in legs.items():
            dist = DistributedTrainer(small_dataset, with_weights, num_workers=2,
                                      config=TrainingConfig(**extra, **common)).run()
            np.testing.assert_allclose(dist.training.losses(), single[name],
                                       rtol=1e-4, atol=1e-6, err_msg=name)
