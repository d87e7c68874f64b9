"""Layer-wise full-neighbourhood inference: parity, memory discipline, trainers.

The subsystem contract under test (``repro/sample/inference.py``):

* single-machine layer-wise inference produces logits **bit-identical** to
  the full-graph forward pass in ``eval()`` mode, for every conv layer type
  and any batch size;
* the engine reuses the loader's bounded-residency prefetch and the
  structural plan cache (no per-batch sparsity re-derivation after the first
  layer sweep);
* ``FullBatchTrainer.evaluate()`` under ``eval_inference="layerwise"`` is a
  drop-in for the full pass, including after neighbour-sampled training;
* the distributed variant matches single-machine inference to 1e-6 and
  leaves the enclosing restriction scope (MFG / sampled) in force.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import SARConfig
from repro.core.dist_graph import DistributedGraph
from repro.datasets import make_hetero_sbm_dataset, make_sbm_dataset
from repro.distributed.cluster import run_distributed
from repro.graph.mfg import message_flow_masks
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import (
    LayerWiseInference,
    MiniBatchDataLoader,
    NeighborSampler,
    NeighborSamplingConfig,
    distributed_layerwise_logits,
)
from repro.tensor import Tensor, no_grad
from repro.tensor import edge_plan as edge_plan_mod
from repro.training.trainer import FullBatchTrainer, TrainingConfig
from repro.utils.lru import LRUDict
from repro.utils.seed import set_seed


def _full_logits(model, graph, features) -> np.ndarray:
    model.eval()
    with no_grad():
        out = model(graph, Tensor(features)).data
    model.train()
    return out


@pytest.fixture
def dataset():
    return make_sbm_dataset(
        name="inference-sbm",
        num_nodes=220,
        num_classes=4,
        feature_dim=12,
        p_in=0.12,
        p_out=0.015,
    )


# --------------------------------------------------------------------------- #
# single-machine bit parity
# --------------------------------------------------------------------------- #
MODEL_FACTORIES = {
    "sage_mean": lambda d: GraphSageNet(
        d.feature_dim, 16, d.num_classes, num_layers=3, dropout=0.5, use_batch_norm=True
    ),
    "sage_max": lambda d: GraphSageNet(
        d.feature_dim, 16, d.num_classes, num_layers=2, dropout=0.0,
        use_batch_norm=False, aggregator="max",
    ),
    "gat": lambda d: GATNet(
        d.feature_dim, 8, d.num_classes, num_layers=2, num_heads=2,
        dropout=0.5, use_batch_norm=True,
    ),
    "gat_fused": lambda d: GATNet(
        d.feature_dim, 8, d.num_classes, num_layers=2, num_heads=2,
        dropout=0.0, use_batch_norm=False, fused=True,
    ),
}


@pytest.mark.parametrize("kind", sorted(MODEL_FACTORIES))
def test_layerwise_matches_full_forward_bitwise(dataset, kind):
    set_seed(0)
    model = MODEL_FACTORIES[kind](dataset)
    reference = _full_logits(model, dataset.graph, dataset.features)
    got = LayerWiseInference(model, dataset.graph, batch_size=37).run(dataset.features)
    np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("batch_size", [1, 23, 220, 1000])
def test_layerwise_any_batch_size(dataset, batch_size):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    reference = _full_logits(model, dataset.graph, dataset.features)
    got = LayerWiseInference(model, dataset.graph, batch_size=batch_size).run(dataset.features)
    np.testing.assert_array_equal(got, reference)


def test_layerwise_hetero_rgcn():
    ds = make_hetero_sbm_dataset(
        name="inference-hetero",
        num_nodes=150,
        num_classes=3,
        feature_dim=10,
        relation_specs={
            "cites": {"p_in": 0.10, "p_out": 0.01},
            "topic": {"p_in": 0.05, "p_out": 0.02},
        },
    )
    graph = ds.hetero_graph
    set_seed(0)
    model = RGCNNet(
        ds.feature_dim, 12, ds.num_classes, graph.relation_names,
        num_layers=2, dropout=0.0, use_batch_norm=True,
    )
    reference = _full_logits(model, graph, ds.features)
    got = LayerWiseInference(model, graph, batch_size=41).run(ds.features)
    np.testing.assert_array_equal(got, reference)


def test_layerwise_restores_training_mode_and_validates(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    engine = LayerWiseInference(model, dataset.graph, batch_size=64)
    assert model.training
    engine.run(dataset.features)
    assert model.training  # eval() was temporary
    with pytest.raises(ValueError, match="rows"):
        engine.run(dataset.features[:-1])

    class NoHooks:
        pass

    with pytest.raises(ValueError, match="forward_layer"):
        LayerWiseInference(NoHooks(), dataset.graph)


def test_forward_layer_composes_to_forward(dataset):
    """The per-layer hook, chained, reproduces the full forward bit-for-bit."""
    set_seed(0)
    model = MODEL_FACTORIES["gat"](dataset)
    model.eval()
    with no_grad():
        reference = model(dataset.graph, Tensor(dataset.features)).data
        x = Tensor(dataset.features)
        for layer in range(model.num_layers):
            x = model.forward_layer(layer, dataset.graph, x)
    np.testing.assert_array_equal(x.data, reference)
    with pytest.raises(IndexError):
        model.forward_layer(model.num_layers, dataset.graph, x)


# --------------------------------------------------------------------------- #
# plan reuse + residency discipline
# --------------------------------------------------------------------------- #
def test_layerwise_reuses_plans_across_layers_and_runs(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    engine = LayerWiseInference(model, dataset.graph, batch_size=50)
    edge_plan_mod.shared_plan_cache().clear()
    engine.run(dataset.features)
    built = edge_plan_mod.build_counter
    # Batches are identical across layers and runs (no shuffle, fanout=-1),
    # so the structural cache must satisfy every later sweep.
    engine.run(dataset.features)
    engine.run(dataset.features)
    assert edge_plan_mod.build_counter == built


@pytest.mark.parametrize("max_resident", [1, 2, 4])
def test_loader_residency_bound_is_configurable(dataset, max_resident):
    sampler = NeighborSampler(dataset.graph, [-1], seed=0)
    loader = MiniBatchDataLoader(
        sampler,
        np.arange(dataset.graph.num_nodes),
        batch_size=32,
        shuffle=False,
        num_workers=2,
        max_resident=max_resident,
    )
    for _ in loader.iter_epoch(0):
        pass
    assert 1 <= loader.peak_resident_batches <= max_resident


def test_loader_rejects_nonpositive_max_resident(dataset):
    sampler = NeighborSampler(dataset.graph, [-1], seed=0)
    with pytest.raises(ValueError, match="max_resident"):
        MiniBatchDataLoader(
            sampler, np.arange(10), batch_size=4, max_resident=0
        )


def test_engine_exposes_loader_bound(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    engine = LayerWiseInference(
        model, dataset.graph, batch_size=32, num_workers=2, max_resident=2
    )
    engine.run(dataset.features)
    assert engine.num_batches == 7  # ceil(220 / 32)
    assert 1 <= engine.peak_resident_batches <= 2


# --------------------------------------------------------------------------- #
# adaptive batch sizing (byte_budget)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage_mean", "gat"])
def test_adaptive_byte_budget_parity(dataset, kind):
    set_seed(0)
    model = MODEL_FACTORIES[kind](dataset)
    reference = _full_logits(model, dataset.graph, dataset.features)
    engine = LayerWiseInference(
        model, dataset.graph, batch_size=64, byte_budget=64 * 1024
    )
    got = engine.run(dataset.features)
    np.testing.assert_array_equal(got, reference)
    assert len(engine.layer_batch_sizes) == model.num_layers
    assert all(
        1 <= bs <= dataset.graph.num_nodes for bs in engine.layer_batch_sizes
    )


def test_adaptive_budget_extremes(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_max"](dataset)
    reference = _full_logits(model, dataset.graph, dataset.features)
    # A one-byte budget floors every layer at single-node batches…
    tiny = LayerWiseInference(model, dataset.graph, byte_budget=1)
    np.testing.assert_array_equal(tiny.run(dataset.features), reference)
    assert tiny.layer_batch_sizes == [1] * model.num_layers
    # …and a giant budget ceilings at one whole-graph batch per layer.
    huge = LayerWiseInference(model, dataset.graph, byte_budget=1 << 30)
    np.testing.assert_array_equal(huge.run(dataset.features), reference)
    assert huge.layer_batch_sizes == [dataset.graph.num_nodes] * model.num_layers


def test_adaptive_sizes_track_layer_widths(dataset):
    """Wider layer inputs get smaller batches under the same budget."""
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)  # widths 12 -> 16 -> 16
    engine = LayerWiseInference(model, dataset.graph, byte_budget=32 * 1024)
    engine.run(dataset.features)
    sizes = engine.layer_batch_sizes
    assert sizes[0] > sizes[1]  # layer 0 reads 12-wide rows, layer 1 16-wide
    assert sizes[2] >= sizes[1]  # same input width, narrower (4-class) output


def test_adaptive_rejects_bad_budget(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    with pytest.raises(ValueError, match="byte_budget"):
        LayerWiseInference(model, dataset.graph, byte_budget=0)


# --------------------------------------------------------------------------- #
# bounded restriction cache
# --------------------------------------------------------------------------- #
def test_lru_dict_semantics():
    lru = LRUDict(capacity=2)
    lru["a"] = 1
    lru["b"] = 2
    assert lru["a"] == 1  # refreshes recency: "b" is now LRU
    lru["c"] = 3
    assert "b" not in lru
    assert lru.evictions == 1
    assert lru.setdefault("a", 99) == 1
    assert lru.get("missing") is None
    assert sorted(lru) == ["a", "c"]
    assert len(lru) == 2
    del lru["a"]
    assert "a" not in lru
    with pytest.raises(ValueError, match="capacity"):
        LRUDict(0)


# --------------------------------------------------------------------------- #
# trainer integration
# --------------------------------------------------------------------------- #
def test_evaluate_layerwise_is_dropin(dataset):
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    trainer = FullBatchTrainer(
        model, dataset, TrainingConfig(num_epochs=2, eval_every=0, seed=0)
    )
    trainer.train()
    accs_full, logits_full = trainer.evaluate()
    # evaluate() reads the mode from the config at call time.
    trainer.config.eval_inference, trainer.config.eval_batch_size = "layerwise", 48
    accs_layer, logits_layer = trainer.evaluate()
    np.testing.assert_array_equal(logits_layer, logits_full)
    assert accs_layer == accs_full


@pytest.mark.parametrize("fanouts", [(4, 4), (-1, -1)])
def test_sampled_training_with_layerwise_eval_parity(dataset, fanouts):
    """Sampled training + layer-wise eval == the same run's full-graph eval."""
    set_seed(0)
    model = GraphSageNet(
        dataset.feature_dim, 16, dataset.num_classes, num_layers=2,
        dropout=0.0, use_batch_norm=True,
    )
    config = TrainingConfig(
        num_epochs=2,
        eval_every=0,
        seed=0,
        sampler=NeighborSamplingConfig(fanouts=fanouts, batch_size=64),
        eval_inference="layerwise",
        eval_batch_size=48,
    )
    trainer = FullBatchTrainer(model, dataset, config)
    result = trainer.train()  # final evaluation runs layer-wise
    _, logits_layer = trainer.evaluate()
    config.eval_inference = "full"
    _, logits_full = trainer.evaluate()
    np.testing.assert_array_equal(logits_layer, logits_full)
    assert np.isfinite(result.final_test_accuracy)


# --------------------------------------------------------------------------- #
# distributed layer-wise inference
# --------------------------------------------------------------------------- #
def _fixed_model(dataset, kind: str):
    set_seed(0)
    if kind == "sage":
        model = GraphSageNet(
            dataset.feature_dim, 16, dataset.num_classes, num_layers=2,
            dropout=0.0, use_batch_norm=False,
        )
    else:
        model = GATNet(
            dataset.feature_dim, 8, dataset.num_classes, num_layers=2,
            num_heads=2, dropout=0.0, use_batch_norm=False,
        )
    return model


def _weights_of(model):
    return [p.data.copy() for p in model.parameters()]


def _install_weights(model, weights):
    for param, value in zip(model.parameters(), weights):
        param.data[...] = value
    return model


@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("world_size", [2, 3])
def test_distributed_layerwise_matches_single_machine(dataset, kind, world_size):
    dataset.attach_to_graph()
    template = _fixed_model(dataset, kind)
    weights = _weights_of(template)
    reference = _full_logits(
        _install_weights(_fixed_model(dataset, kind), weights),
        dataset.graph, dataset.features,
    )
    book = PartitionBook(partition_graph(dataset.graph, world_size, seed=0), world_size)
    shards = create_shards(dataset.graph, book)

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        model = _install_weights(_fixed_model(dataset, kind), weights)
        model.set_comm(comm)
        local = distributed_layerwise_logits(
            dist_graph, model, shard.node_data["feat"], batch_size=60
        )
        return local, dist_graph.global_node_ids

    result = run_distributed(worker, world_size, worker_args=shards)
    assembled = np.zeros_like(reference)
    for local, ids in result.results:
        assembled[ids] = local
    np.testing.assert_allclose(assembled, reference, atol=1e-6)


def test_layerwise_pass_inside_mfg_scope_leaves_mfg_in_force(dataset):
    """Scopes nest: a layer-wise pass inside an MFG scope runs its own
    per-batch scopes and leaves the MFG layers in force, and ``restricted(None)``
    inside the scope yields full-graph rows."""
    dataset.attach_to_graph()
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)
    seeds = dataset.train_indices()[:24]
    masks = message_flow_masks(dataset.graph, seeds, 2)
    book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
    shards = create_shards(dataset.graph, book)

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        model = _install_weights(_fixed_model(dataset, "sage"), weights)
        model.set_comm(comm)
        features = Tensor(shard.node_data["feat"])

        def step():
            """One training-style forward; returns (logits, halo bytes fetched)."""
            before = comm.stats.received_by_tag.get("forward_halo", 0)
            dist_graph.begin_step()
            logits = model(dist_graph, features).data
            return logits, comm.stats.received_by_tag.get("forward_halo", 0) - before

        full_logits, full_bytes = step()
        mfg = dist_graph.prepare_restriction(dist_graph.mfg_blocks(masks), name="mfg")
        halo_sizes = [view.halo_size for view, _ in mfg]
        with dist_graph.restricted(mfg):
            _, bytes_before = step()
            local = distributed_layerwise_logits(
                dist_graph, model, shard.node_data["feat"], batch_size=60
            )
            _, bytes_after = step()  # still restricted to the MFG layers
            with dist_graph.restricted(None):
                inner_logits, inner_bytes = step()
        np.testing.assert_array_equal(inner_logits, full_logits)
        assert [view.halo_size for view, _ in mfg] == halo_sizes
        return local, bytes_before, bytes_after, inner_bytes, full_bytes

    result = run_distributed(worker, 2, worker_args=shards)
    for local, bytes_before, bytes_after, inner_bytes, full_bytes in result.results:
        assert local.shape[1] == dataset.num_classes
        assert bytes_after == bytes_before < full_bytes == inner_bytes


def test_distributed_layerwise_restriction_cache_reused(dataset):
    """Repeat evaluations reinstall cached restriction grids: zero additional
    setup-tagged routing traffic, identical logits."""
    dataset.attach_to_graph()
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)
    book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
    shards = create_shards(dataset.graph, book)
    batch_size = 60
    num_batches = -(-dataset.graph.num_nodes // batch_size)

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        model = _install_weights(_fixed_model(dataset, "sage"), weights)
        model.set_comm(comm)
        first = distributed_layerwise_logits(
            dist_graph, model, shard.node_data["feat"], batch_size=batch_size
        )
        setup_after_first = comm.stats.received_by_tag.get("setup", 0)
        second = distributed_layerwise_logits(
            dist_graph, model, shard.node_data["feat"], batch_size=batch_size
        )
        setup_after_second = comm.stats.received_by_tag.get("setup", 0)
        np.testing.assert_array_equal(first, second)
        cached = dist_graph.restriction_cache[("layerwise", batch_size)]
        return setup_after_second - setup_after_first, len(cached)

    result = run_distributed(worker, 2, worker_args=shards)
    for extra_setup_bytes, cached_grids in result.results:
        assert extra_setup_bytes == 0
        assert cached_grids == num_batches


def test_restriction_cache_lru_eviction_frees_grids(dataset):
    """Beyond capacity, the bounded restriction cache drops the oldest
    prepared grids — and dropping them actually releases the memory (no
    stray strong references keep the shard views alive)."""
    dataset.attach_to_graph()
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)
    book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
    shards = create_shards(dataset.graph, book)

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        assert isinstance(dist_graph.restriction_cache, LRUDict)
        # Shrink to one entry so the second batch size must evict the first.
        dist_graph.restriction_cache = LRUDict(capacity=1)
        model = _install_weights(_fixed_model(dataset, "sage"), weights)
        model.set_comm(comm)
        distributed_layerwise_logits(
            dist_graph, model, shard.node_data["feat"], batch_size=60
        )
        # cache value: per-batch list of per-layer (shard view, halo) pairs.
        first_view = weakref.ref(
            dist_graph.restriction_cache[("layerwise", 60)][0][0][0]
        )
        distributed_layerwise_logits(
            dist_graph, model, shard.node_data["feat"], batch_size=80
        )
        assert ("layerwise", 60) not in dist_graph.restriction_cache
        assert ("layerwise", 80) in dist_graph.restriction_cache
        assert dist_graph.restriction_cache.evictions == 1
        gc.collect()
        return first_view() is None

    result = run_distributed(worker, 2, worker_args=shards)
    assert all(result.results)


def test_distributed_layerwise_rejects_wrong_inputs(dataset):
    dataset.attach_to_graph()
    book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
    shards = create_shards(dataset.graph, book)
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        model = _install_weights(_fixed_model(dataset, "sage"), weights)
        with pytest.raises(ValueError, match="rows"):
            distributed_layerwise_logits(
                dist_graph, model, np.zeros((3, dataset.feature_dim), dtype=np.float32)
            )
        return True

    result = run_distributed(worker, 2, worker_args=shards)
    assert all(result.results)
