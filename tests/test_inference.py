"""Layer-wise full-neighbourhood inference: parity, memory discipline, trainers.

The subsystem contract under test (``repro/sample/inference.py``):

* single-machine layer-wise inference produces logits **bit-identical** to
  the full-graph forward pass in ``eval()`` mode, for every conv layer type
  and any batch size, and on a sparse graph its peak of live tensor bytes is
  strictly below the full forward's, with fixed or adaptive batches;
* the engine builds each batch's block once per batch size — from the
  graph's in-edge index, through the one shared builder — and reuses it (and
  its edge plan) for every later layer and every later run;
* ``FullBatchTrainer.evaluate()`` under ``eval_inference="layerwise"`` is a
  drop-in for the full pass, including after neighbour-sampled training;
* distributed evaluation is the unrestricted no-grad SAR forward bit for bit
  (DP included), matches single-machine inference to 1e-6, and leaves the
  enclosing restriction scope (MFG / sampled) in force;
* the sharded serving walk (``distributed_restricted_logits``) runs over
  blocks from the same builder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SARConfig
from repro.core.dist_graph import DistributedGraph
from repro.datasets import make_hetero_sbm_dataset, make_sbm_dataset
from repro.distributed.cluster import run_distributed
from repro.graph.mfg import block_from_in_edges
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import (
    LayerWiseInference,
    MiniBatchDataLoader,
    NeighborSampler,
    NeighborSamplingConfig,
    distributed_layerwise_logits,
)
from repro.sample import inference as inference_mod
from repro.sample.inference import distributed_restricted_logits
from repro.store import PartitionedKVStore, SparseEmbeddingStore
from repro.tensor import Tensor, no_grad
from repro.tensor import edge_plan as edge_plan_mod
from repro.tensor.memory import MemoryTracker, track_memory
from repro.training.trainer import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.lru import LRUDict
from repro.utils.seed import set_seed, temp_seed
from mfg_helpers import distributed_mfg_grids


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
@pytest.fixture(scope="module")
def hetero_dataset():
    return make_hetero_sbm_dataset(
        name="inference-hetero",
        num_nodes=150,
        num_classes=3,
        feature_dim=10,
        relation_specs={
            "cites": {"p_in": 0.10, "p_out": 0.01},
            "topic": {"p_in": 0.05, "p_out": 0.02},
        },
    )


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
    "rgcn": lambda d: RGCNNet(
        d.feature_dim, 12, d.num_classes, d.graph.relation_names,
        num_layers=2, dropout=0.0, use_batch_norm=True,
    ),
}

#: how a run sizes its batches: engine keyword arguments, ``None`` = num_nodes.
SIZINGS = {
    "bs1": dict(batch_size=1),
    "bs7": dict(batch_size=7),
    "bs=n": dict(batch_size=None),
    "bs>n": dict(batch_size=100_000),
    "budget": dict(byte_budget=16 * 1024),
}


def _run_through_store(engine, features, store_kind):
    """``engine.run`` with ``features`` served by the named store backend."""
    num_nodes, dim = features.shape
    if store_kind == "dense":
        return engine.run(features)
    if store_kind == "sparse":
        return engine.run(SparseEmbeddingStore(num_nodes, dim, weight=features))
    # kv: two thread workers own alternate rows; rank 0 sweeps the whole graph
    # (half of every gather crosses the communicator), rank 1 only serves.
    book = PartitionBook(np.arange(num_nodes) % 2, 2)

    def worker(rank, comm):
        store = PartitionedKVStore(comm, book, features[book.nodes_of(rank)], cache_bytes=1 << 12)
        comm.barrier()
        out = engine.run(store) if rank == 0 else None
        comm.barrier()
        store.release()
        return out

    return run_distributed(worker, 2, timeout_s=120).results[0]


def _assert_layerwise_parity(kind, ds, store_kind="dense", **sizing):
    graph = ds.graph
    if "batch_size" in sizing and sizing["batch_size"] is None:
        sizing["batch_size"] = graph.num_nodes
    set_seed(0)
    model = MODEL_FACTORIES[kind](ds)
    reference = _full_logits(model, graph, ds.features)
    engine = LayerWiseInference(model, graph, **sizing)
    got = _run_through_store(engine, ds.features, store_kind)
    np.testing.assert_array_equal(got, reference)
    return engine


@pytest.mark.parametrize("kind", sorted(MODEL_FACTORIES))
def test_layerwise_matches_full_forward_bitwise(dataset, hetero_dataset, kind):
    _assert_layerwise_parity(kind, hetero_dataset if kind == "rgcn" else dataset, batch_size=37)


@pytest.mark.parametrize("batch_size", [1, 23, 220, 1000])
def test_layerwise_any_batch_size(dataset, batch_size):
    _assert_layerwise_parity("sage_mean", dataset, batch_size=batch_size)


@pytest.mark.parametrize("store_kind", ["dense", "kv", "sparse"])
@pytest.mark.parametrize("sizing", list(SIZINGS))
@pytest.mark.parametrize("kind", sorted(MODEL_FACTORIES))
def test_layerwise_parity_matrix(dataset, hetero_dataset, kind, sizing, store_kind):
    """Every conv family x batch sizing x feature-store backend, bit for bit."""
    ds = hetero_dataset if kind == "rgcn" else dataset
    engine = _assert_layerwise_parity(kind, ds, store_kind, **SIZINGS[sizing])
    assert len(engine.layer_batch_sizes) == engine.num_layers


def test_layerwise_hetero_rgcn(hetero_dataset):
    _assert_layerwise_parity("rgcn", hetero_dataset, batch_size=41)


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


@pytest.fixture(scope="module")
def sparse_dataset():
    """Sparse enough that one batch's 1-hop set is a small fraction of the graph
    (the regime layer-wise inference exists for: on a small dense graph every
    batch gathers nearly every row and saves nothing)."""
    return make_sbm_dataset(
        name="inference-sparse",
        num_nodes=4000,
        num_classes=4,
        feature_dim=32,
        p_in=0.002,
        p_out=0.0002,
    )


def _peak_bytes(fn) -> int:
    tracker = MemoryTracker(label="inference")
    with track_memory(tracker):
        fn()
    return tracker.peak_bytes


@pytest.mark.parametrize(
    "sizing",
    [dict(batch_size=128), dict(byte_budget=256 * 1024)],
    ids=["batch_size", "byte_budget"],
)
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_layerwise_peak_memory_below_full_forward(sparse_dataset, kind, sizing):
    """A strictly lower peak of live tensor bytes than the full forward, for
    fixed and adaptive batch sizing alike."""
    ds, graph = sparse_dataset, sparse_dataset.graph
    set_seed(0)
    if kind == "sage":
        model = GraphSageNet(ds.feature_dim, 64, ds.num_classes, num_layers=2,
                             dropout=0.0, use_batch_norm=False)
    else:
        model = GATNet(ds.feature_dim, 16, ds.num_classes, num_layers=2, num_heads=4,
                       dropout=0.0, use_batch_norm=False)
    engine = LayerWiseInference(model, graph, **sizing)
    reference = _full_logits(model, graph, ds.features)
    # Bit parity is the matrix above's job; here the values only show that
    # the sweep computed every row.
    np.testing.assert_allclose(engine.run(ds.features), reference, rtol=1e-5, atol=1e-5)
    first_batch = np.arange(max(engine.layer_batch_sizes))
    assert block_from_in_edges(graph.in_edge_index(), first_batch).num_src_nodes < graph.num_nodes // 4
    full_peak = _peak_bytes(lambda: _full_logits(model, graph, ds.features))
    layerwise_peak = _peak_bytes(lambda: engine.run(ds.features))
    assert layerwise_peak < full_peak


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
def test_layerwise_reuses_plans_across_layers_and_runs(dataset, monkeypatch):
    built_blocks = []

    def counting_builder(*args):
        built_blocks.append(args)
        return block_from_in_edges(*args)

    monkeypatch.setattr(inference_mod, "block_from_in_edges", counting_builder)
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)  # three layers
    engine = LayerWiseInference(model, dataset.graph, batch_size=50)
    assert engine.num_batches == 5  # ceil(220 / 50)
    built = edge_plan_mod.build_counter
    engine.run(dataset.features)
    # Built once: layer 0 built the five blocks, layers 1 and 2 built none.
    assert len(built_blocks) == engine.num_batches
    # each block built its own plan, once
    assert edge_plan_mod.build_counter - built == engine.num_batches
    built = edge_plan_mod.build_counter
    # Batches are identical across layers and runs (consecutive ids, complete
    # neighbourhoods), so later sweeps build no block and no plan.
    engine.run(dataset.features)
    engine.run(dataset.features)
    assert len(built_blocks) == engine.num_batches
    assert edge_plan_mod.build_counter == built


def test_adaptive_run_builds_one_block_list_per_distinct_size(dataset, monkeypatch):
    built_sizes = []

    def counting_builder(index, dst_rows):
        built_sizes.append(len(dst_rows))
        return block_from_in_edges(index, dst_rows)

    monkeypatch.setattr(inference_mod, "block_from_in_edges", counting_builder)
    set_seed(0)
    model = MODEL_FACTORIES["sage_mean"](dataset)
    engine = LayerWiseInference(model, dataset.graph, byte_budget=32 * 1024)
    engine.run(dataset.features)
    num_nodes = dataset.graph.num_nodes
    expected = sum(-(-num_nodes // size) for size in set(engine.layer_batch_sizes))
    assert len(built_sizes) == expected
    assert sum(built_sizes) == num_nodes * len(set(engine.layer_batch_sizes))
    engine.run(dataset.features)
    assert len(built_sizes) == expected


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
# the bounded LRU mapping
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
# distributed evaluation
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


def _sar_forward(dist_graph, model, features) -> np.ndarray:
    """One unrestricted eval-mode no-grad forward, written out by hand."""
    model.eval()
    with no_grad(), dist_graph.restricted(None):
        dist_graph.begin_step()
        logits = model(dist_graph, Tensor(features)).data
    model.train()
    return logits


@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("world_size", [2, 3])
def test_distributed_layerwise_matches_single_machine(dataset, kind, world_size):
    """The evaluation is the SAR forward bit for bit, and single-machine to 1e-6."""
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
        assert model.training  # eval() was temporary
        np.testing.assert_array_equal(
            local, _sar_forward(dist_graph, model, shard.node_data["feat"])
        )
        return local, dist_graph.global_node_ids

    result = run_distributed(worker, world_size, worker_args=shards)
    assembled = np.zeros_like(reference)
    for local, ids in result.results:
        assembled[ids] = local
    np.testing.assert_allclose(assembled, reference, atol=1e-6)


def test_dp_evaluation_drops_its_halos_under_no_grad(dataset):
    """With no backward to record, vanilla DP keeps one remote block and no
    per-edge attention tensor: the same logits and tracked peak as SAR."""
    dataset.attach_to_graph()
    weights = _weights_of(_fixed_model(dataset, "gat"))
    world_size = 3
    book = PartitionBook(partition_graph(dataset.graph, world_size, seed=0), world_size)
    shards = create_shards(dataset.graph, book)

    def run(mode):
        def worker(rank, comm, shard):
            dist_graph = DistributedGraph(shard, comm, SARConfig(mode=mode))
            model = _install_weights(_fixed_model(dataset, "gat"), weights)
            logits = distributed_layerwise_logits(dist_graph, model, shard.node_data["feat"])
            remote_blocks = sum(
                1 for q, block in enumerate(shard.blocks) if q != rank and block.num_edges
            )
            return logits, dist_graph.engine.max_resident_remote_blocks, remote_blocks

        return run_distributed(worker, world_size, worker_args=shards)

    sar, dp = run("sar"), run("dp")
    for (sar_logits, _, _), (dp_logits, resident, remote_blocks) in zip(sar.results, dp.results):
        assert remote_blocks == 2  # otherwise the bound is vacuous
        assert resident == 1
        np.testing.assert_array_equal(dp_logits, sar_logits)
    assert dp.peak_memory_bytes == sar.peak_memory_bytes


def test_layerwise_pass_inside_mfg_scope_leaves_mfg_in_force(dataset):
    """Scopes nest: an evaluation inside an MFG scope scores every row, bit
    for bit as an unrestricted step, and leaves the MFG layers in force, as
    ``restricted(None)`` inside the scope does."""
    dataset.attach_to_graph()
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)
    seeds = dataset.train_indices()[:24]
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
        mfg = dist_graph.prepare_restriction(distributed_mfg_grids(shard, comm, seeds, 2),
                                             name="mfg")
        halo_sizes = [view.halo_size for view, _ in mfg]
        with dist_graph.restricted(mfg):
            _, bytes_before = step()
            local = distributed_layerwise_logits(
                dist_graph, model, shard.node_data["feat"], batch_size=60
            )
            _, bytes_after = step()  # still restricted to the MFG layers
            with dist_graph.restricted(None):
                inner_logits, inner_bytes = step()
        np.testing.assert_array_equal(local, full_logits)
        np.testing.assert_array_equal(inner_logits, full_logits)
        assert [view.halo_size for view, _ in mfg] == halo_sizes
        return bytes_before, bytes_after, inner_bytes, full_bytes

    result = run_distributed(worker, 2, worker_args=shards)
    for bytes_before, bytes_after, inner_bytes, full_bytes in result.results:
        assert bytes_after == bytes_before < full_bytes == inner_bytes


@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_distributed_trainer_eval_modes_agree(dataset, kind):
    """A distributed worker evaluates by one SAR forward whichever mode is set."""

    def factory(in_features):
        with temp_seed(0):
            if kind == "sage":
                return GraphSageNet(in_features, 16, dataset.num_classes, num_layers=2,
                                    dropout=0.0, use_batch_norm=True)
            return GATNet(in_features, 8, dataset.num_classes, num_layers=2, num_heads=2,
                          dropout=0.0, use_batch_norm=True)

    logits = {}
    for mode in ("full", "layerwise"):
        trainer = DistributedTrainer(
            dataset, factory, num_workers=2, sar_config=SARConfig("sar"),
            config=TrainingConfig(num_epochs=2, lr=0.05, seed=0, eval_inference=mode,
                                  eval_batch_size=32),
        )
        logits[mode] = trainer.assemble_global_predictions(trainer.run())
    np.testing.assert_array_equal(logits["layerwise"], logits["full"])


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
        with pytest.raises(ValueError, match="DistributedGraph"):
            distributed_layerwise_logits(shard, model, shard.node_data["feat"])
        return True

    result = run_distributed(worker, 2, worker_args=shards)
    assert all(result.results)


# --------------------------------------------------------------------------- #
# the sharded serving walk runs over the same builder
# --------------------------------------------------------------------------- #
def test_restricted_walk_blocks_come_from_the_shared_builder(dataset):
    """Per layer, a rank's block is ``block_from_in_edges`` over its shard's
    local-destination / global-source index — array for array what the
    single-machine index gives for the same global destinations."""
    dataset.attach_to_graph()
    graph = dataset.graph
    template = _fixed_model(dataset, "sage")
    weights = _weights_of(template)
    book = PartitionBook(partition_graph(graph, 2, seed=0), 2)
    shards = create_shards(graph, book)
    seeds = np.array([3, 50, 51, 120, 219])
    arrays = ("src_nodes", "dst_nodes", "src", "dst", "dst_in_src")

    def worker(rank, comm, shard):
        dist_graph = DistributedGraph(shard, comm, SARConfig(mode="sar"))
        model = _install_weights(_fixed_model(dataset, "sage"), weights)
        model.eval()
        blocks, inner = [], model.forward_layer

        def forward_layer(index, block, x):
            blocks.append(block)
            return inner(index, block, x)

        model.forward_layer = forward_layer
        distributed_restricted_logits(dist_graph, model, dataset.features, seeds)
        for block in blocks:
            global_ids = block.dst_nodes
            assert (book.assignment[global_ids] == rank).all()  # owned destinations only
            local_rows = book.to_local(global_ids)[1]
            from_shard = block_from_in_edges(shard.in_edge_index(), local_rows, global_ids)
            from_graph = block_from_in_edges(graph.in_edge_index(), global_ids)
            for name in arrays:
                np.testing.assert_array_equal(getattr(block, name), getattr(from_shard, name))
                np.testing.assert_array_equal(getattr(from_shard, name), getattr(from_graph, name))
        return len(blocks)

    result = run_distributed(worker, 2, worker_args=shards)
    assert sum(result.results) >= 2  # both layers, on at least one rank each
