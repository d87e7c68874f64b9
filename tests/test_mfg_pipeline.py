"""Tests for the MFG execution pipeline (compacted per-layer blocks).

The defining property of the pipeline is *exact* parity: a block contains a
required destination's complete in-neighbourhood in the original edge order,
so the restricted forward pass must produce bit-identical seed-node logits —
single-machine over :class:`~repro.graph.mfg.MFGBlock` chains, and 2-worker
SAR over the per-layer grids the cooperative sampler builds at fan-out -1 —
and distributed MFG training must follow the single-machine MFG trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SARConfig
from repro.core.dist_graph import DistributedGraph
from repro.distributed.cluster import run_distributed
from repro.graph import (
    Graph,
    MFGPipeline,
    build_mfg_pipeline,
    stochastic_block_model,
)
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.training.trainer import (
    DistributedTrainer,
    FullBatchTrainer,
    TrainingConfig,
)
from repro.utils.seed import set_seed
from mfg_helpers import distributed_mfg_grids
from reference_kernels import ReferenceGraph


@pytest.fixture
def mfg_setup(rng):
    graph, _ = stochastic_block_model([150] * 4, p_in=0.04, p_out=0.004, seed=3)
    graph = graph.add_self_loops()
    features = rng.standard_normal((graph.num_nodes, 12)).astype(np.float32)
    labels = rng.integers(0, 4, graph.num_nodes)
    seeds = np.sort(rng.choice(graph.num_nodes, 15, replace=False))
    return graph, features, labels, seeds


def _loss_over(logits, labels, rows=None):
    if rows is not None:
        labels = labels[rows]
    return F.cross_entropy(logits, labels, reduction="sum")


def _full_vs_mfg(factory, graph, pipeline, features, labels):
    """Forward+backward both ways; return (full seed logits, mfg logits, grad diffs)."""
    seeds = pipeline.output_nodes
    seed_mask = np.zeros(graph.num_nodes, dtype=bool)
    seed_mask[seeds] = True

    set_seed(0)
    model_full = factory()
    logits_full = model_full(graph, Tensor(features))
    model_full.zero_grad()
    _loss_over(logits_full[seed_mask], labels, seeds).backward()

    set_seed(0)
    model_mfg = factory()
    logits_mfg = model_mfg(pipeline, Tensor(pipeline.gather_inputs(features)))
    model_mfg.zero_grad()
    _loss_over(logits_mfg, labels, seeds).backward()

    grad_diffs = [np.abs(a.grad - b.grad).max()
                  for a, b in zip(model_full.parameters(), model_mfg.parameters())]
    return logits_full.data[seeds], logits_mfg.data, grad_diffs


class TestPipelineStructure:
    def test_blocks_chain_and_outputs_are_seeds(self, mfg_setup):
        graph, _, _, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=3)
        assert pipeline.num_layers == 3
        np.testing.assert_array_equal(pipeline.output_nodes, seeds)
        for left, right in zip(pipeline.blocks, pipeline.blocks[1:]):
            np.testing.assert_array_equal(left.dst_nodes, right.src_nodes)
        for block in pipeline.blocks:
            # dst ⊆ src (cumulative masks) and the gather map agrees.
            np.testing.assert_array_equal(block.src_nodes[block.dst_in_src],
                                          block.dst_nodes)

    def test_block_keeps_complete_in_neighbourhood(self, mfg_setup):
        graph, _, _, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=2)
        block = pipeline.blocks[-1]
        full_in_degrees = graph.in_degrees()
        np.testing.assert_array_equal(np.bincount(block.dst, minlength=block.num_dst_nodes),
                                      full_in_degrees[block.dst_nodes])

    def test_counts_match_masks(self, mfg_setup):
        graph, _, _, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=3)
        from repro.graph import required_node_counts

        assert pipeline.required_node_counts() == required_node_counts(
            graph, seeds, num_layers=3
        )

    def test_layer_block_bounds_checked(self, mfg_setup):
        graph, _, _, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=2)
        with pytest.raises(IndexError):
            pipeline.layer_block(2)

    def test_model_layer_mismatch_raises(self, mfg_setup):
        graph, features, _, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=2)
        model = GraphSageNet(12, 8, 4, num_layers=3, dropout=0.0,
                             use_batch_norm=False)
        with pytest.raises(ValueError, match="conv layers"):
            model(pipeline, Tensor(pipeline.gather_inputs(features)))


class TestSingleMachineParity:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_sage_bit_identical_logits_and_matching_grads(self, mfg_setup, aggregator):
        graph, features, labels, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=3)
        def factory():
            return GraphSageNet(12, 16, 4, dropout=0.0, use_batch_norm=False,
                                aggregator=aggregator)
        full, mfg, grad_diffs = _full_vs_mfg(factory, graph, pipeline, features, labels)
        np.testing.assert_array_equal(full, mfg)
        assert max(grad_diffs) < 1e-4

    @pytest.mark.parametrize("fused", [False, True])
    def test_gat_bit_identical_logits_and_matching_grads(self, mfg_setup, fused):
        graph, features, labels, seeds = mfg_setup
        pipeline = build_mfg_pipeline(graph, seeds, num_layers=3)
        def factory():
            return GATNet(12, 8, 4, num_heads=2, dropout=0.0,
                          use_batch_norm=False, fused=fused)
        full, mfg, grad_diffs = _full_vs_mfg(factory, graph, pipeline, features, labels)
        np.testing.assert_array_equal(full, mfg)
        assert max(grad_diffs) < 1e-4

    def test_sage_parity_on_naive_kernels(self, mfg_setup):
        graph, features, labels, seeds = mfg_setup
        blocks = build_mfg_pipeline(graph, seeds, num_layers=2).blocks
        pipeline = MFGPipeline([ReferenceGraph(block) for block in blocks])
        def factory():
            return GraphSageNet(12, 16, 4, num_layers=2, dropout=0.0,
                                use_batch_norm=False)
        full, mfg, grad_diffs = _full_vs_mfg(factory, ReferenceGraph(graph), pipeline,
                                             features, labels)
        np.testing.assert_allclose(full, mfg, rtol=1e-5, atol=1e-6)
        assert max(grad_diffs) < 1e-4

    def test_rgcn_bit_identical_logits(self, rng):
        num_nodes = 300
        relations = {}
        for name in ("cites", "writes"):
            edges = rng.integers(0, num_nodes, (2, 1200))
            relations[name] = (edges[0].astype(np.int64), edges[1].astype(np.int64))
        hgraph = Graph.from_relations(num_nodes, relations)
        features = rng.standard_normal((num_nodes, 10)).astype(np.float32)
        labels = rng.integers(0, 3, num_nodes)
        seeds = np.sort(rng.choice(num_nodes, 12, replace=False))
        pipeline = build_mfg_pipeline(hgraph, seeds, num_layers=2)
        np.testing.assert_array_equal(pipeline.output_nodes, seeds)

        def factory():
            return RGCNNet(10, 12, 3, hgraph.relation_names, num_layers=2,
                           dropout=0.0, use_batch_norm=False)
        full, mfg, grad_diffs = _full_vs_mfg(factory, hgraph, pipeline,
                                             features, labels)
        np.testing.assert_array_equal(full, mfg)
        assert max(grad_diffs) < 1e-4

    def test_hetero_masks_union_all_relations(self):
        relations = {
            "a": (np.array([0]), np.array([1])),
            "b": (np.array([2]), np.array([1])),
        }
        hgraph = Graph.from_relations(3, relations)
        node_lists = build_mfg_pipeline(hgraph, [1], num_layers=1).node_lists
        np.testing.assert_array_equal(node_lists[0], [0, 1, 2])
        np.testing.assert_array_equal(node_lists[1], [1])


class TestTrainerIntegration:
    def test_full_batch_trainer_with_mfg_seeds(self, small_dataset):
        seeds = small_dataset.train_indices()
        config = dict(num_epochs=3, lr=0.05, eval_every=0, seed=0)
        model_kwargs = dict(dropout=0.0, use_batch_norm=False)

        set_seed(0)
        baseline = FullBatchTrainer(
            GraphSageNet(small_dataset.feature_dim, 16, small_dataset.num_classes,
                         **model_kwargs),
            small_dataset, TrainingConfig(**config),
        ).train()

        set_seed(0)
        restricted = FullBatchTrainer(
            GraphSageNet(small_dataset.feature_dim, 16, small_dataset.num_classes,
                         **model_kwargs),
            small_dataset, TrainingConfig(mfg_seeds=seeds, **config),
        ).train()

        # Same loss trajectory (losses are means over the same seed set) and
        # the full-graph evaluation still reports every split.
        np.testing.assert_allclose(restricted.losses(), baseline.losses(),
                                   rtol=1e-4, atol=1e-6)
        assert set(restricted.final_accuracies) == {"train", "val", "test"}

    def test_mfg_seeds_requires_num_layers(self, small_dataset):
        from repro.nn.sage import SageConv

        with pytest.raises(ValueError, match="num_layers"):
            FullBatchTrainer(
                SageConv(small_dataset.feature_dim, small_dataset.num_classes),
                small_dataset,
                TrainingConfig(mfg_seeds=small_dataset.train_indices()),
            )

    @pytest.mark.slow
    def test_distributed_trainer_with_mfg_seeds(self, small_dataset):
        config = TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0,
                                mfg_seeds=small_dataset.train_indices())
        trainer = DistributedTrainer(
            small_dataset,
            lambda dim: GraphSageNet(dim, 16, small_dataset.num_classes,
                                     dropout=0.0, use_batch_norm=False),
            num_workers=2,
            config=config,
        )
        result = trainer.run()
        assert len(result.training.records) == 2
        assert np.isfinite(result.training.final_test_accuracy)

    @pytest.mark.slow
    @pytest.mark.parametrize("world_size", [2, 3])
    @pytest.mark.parametrize("mode", ["sar", "dp"])
    @pytest.mark.parametrize("kind", ["sage-mean", "gat"])
    def test_distributed_mfg_trains_the_single_machine_trajectory(self, small_dataset, kind,
                                                                   mode, world_size):
        seeds = small_dataset.train_indices()[::3]  # a receptive field short of the graph
        # At lr 0.05 Adam lifts GAT's float32 summation-order noise (blocks
        # reduce per owner) to ~1e-3 by the third step; at 0.01 it stays ~1e-6.
        common = dict(num_epochs=3, lr=0.01, eval_every=0, seed=0, mfg_seeds=seeds)

        def make_model(dim):
            if kind == "gat":
                return GATNet(dim, 8, small_dataset.num_classes, num_heads=2,
                              dropout=0.0, use_batch_norm=False)
            return GraphSageNet(dim, 16, small_dataset.num_classes, dropout=0.0,
                                use_batch_norm=False)

        set_seed(0)
        weights = [p.data.copy() for p in make_model(small_dataset.feature_dim).parameters()]

        def with_weights(dim):
            # Worker threads share the global RNG, so the replicas' initial
            # parameters are shipped instead of re-drawn.
            model = make_model(dim)
            for param, value in zip(model.parameters(), weights):
                param.data[...] = value
            return model

        single = FullBatchTrainer(with_weights(small_dataset.feature_dim), small_dataset,
                                  TrainingConfig(**common)).train()
        dist = DistributedTrainer(small_dataset, with_weights, num_workers=world_size,
                                  sar_config=SARConfig(mode), config=TrainingConfig(**common)).run()
        np.testing.assert_allclose(dist.training.losses(), single.losses(),
                                   rtol=1e-4, atol=1e-6)


# --------------------------------------------------------------------------- #
# distributed (2-worker SAR) parity
# --------------------------------------------------------------------------- #
def _make_dist_model(model_name):
    if model_name == "sage":
        return GraphSageNet(12, 16, 4, dropout=0.0, use_batch_norm=False)
    return GATNet(12, 8, 4, num_heads=2, dropout=0.0, use_batch_norm=False)


def _dist_worker(rank, comm, shard, *, model_name, weights, features,
                 labels, seeds, use_mfg):
    # Worker threads share the global RNG, so replica parameters are shipped
    # from the parent instead of re-drawn per worker.
    model = _make_dist_model(model_name)
    for param, value in zip(model.parameters(), weights):
        param.data[...] = value
    dist_graph = DistributedGraph(shard, comm, SARConfig("sar"))
    layers = None  # restricted(None) is the unrestricted forward
    if use_mfg:
        layers = dist_graph.prepare_restriction(
            distributed_mfg_grids(shard, comm, seeds, model.num_layers), name="mfg"
        )
    dist_graph.begin_step()
    with dist_graph.restricted(layers):
        logits = model(dist_graph, Tensor(features[shard.global_node_ids]))
    local_seed = np.isin(shard.global_node_ids, seeds)
    if local_seed.any():
        loss = _loss_over(logits[local_seed],
                          labels[shard.global_node_ids][local_seed])
    else:
        loss = logits.sum() * 0.0
    model.zero_grad()
    loss.backward()
    from repro.core.grad_sync import sync_gradients

    sync_gradients(model.parameters(), comm, scale=1.0)
    halo_bytes = comm.stats.received_by_tag.get("forward_halo", 0)
    return logits.data, [p.grad.copy() for p in model.parameters()], halo_bytes


class TestDistributedSARParity:
    @pytest.mark.parametrize("model_name", ["sage", "gat"])
    def test_mfg_matches_full_and_shrinks_halo(self, mfg_setup, model_name):
        graph, features, labels, seeds = mfg_setup
        book = PartitionBook(partition_graph(graph, 2, seed=0), 2)
        shards = create_shards(graph, book)
        set_seed(0)
        weights = [p.data.copy() for p in _make_dist_model(model_name).parameters()]
        kwargs = dict(model_name=model_name, weights=weights,
                      features=features, labels=labels, seeds=seeds)

        full = run_distributed(_dist_worker, 2, worker_args=shards,
                               use_mfg=False, **kwargs)
        mfg = run_distributed(_dist_worker, 2, worker_args=shards,
                              use_mfg=True, **kwargs)

        logits_full = book.scatter_to_global([r[0] for r in full.results])
        logits_mfg = book.scatter_to_global([r[0] for r in mfg.results])
        np.testing.assert_array_equal(logits_full[seeds], logits_mfg[seeds])
        for grad_full, grad_mfg in zip(full.results[0][1], mfg.results[0][1]):
            np.testing.assert_allclose(grad_full, grad_mfg, rtol=1e-5, atol=1e-6)
        # The restriction must fetch strictly fewer halo rows on every worker.
        for (_, _, full_bytes), (_, _, mfg_bytes) in zip(full.results, mfg.results):
            assert mfg_bytes < full_bytes

    def test_mfg_layer_overrun_raises(self, mfg_setup):
        """One aggregation more than the scope's layers raises — and leaving
        the scope through that exception puts the outer scope back in force
        with its cursor reset."""
        graph, features, _, seeds = mfg_setup
        book = PartitionBook(partition_graph(graph, 2, seed=0), 2)
        shards = create_shards(graph, book)

        def worker(rank, comm, shard):
            dist_graph = DistributedGraph(shard, comm, SARConfig("sar"))
            blocks = distributed_mfg_grids(shard, comm, seeds, num_layers=1)
            outer = dist_graph.prepare_restriction(blocks, name="outer")
            inner = dist_graph.prepare_restriction(blocks, name="inner")
            z = Tensor(features[shard.global_node_ids])
            dist_graph.begin_step()
            with dist_graph.restricted(outer):
                first = dist_graph.aggregate_neighbors(z, op="sum").data
                try:
                    with dist_graph.restricted(inner):
                        dist_graph.aggregate_neighbors(z, op="sum")
                        dist_graph.aggregate_neighbors(z, op="sum")
                except RuntimeError as exc:
                    outcome = "raised" if "issued a 2th aggregation" in str(exc) else repr(exc)
                else:
                    outcome = "no error"
                # Back in the outer scope at layer 0: its one layer is usable
                # again, and only that one.
                again = dist_graph.aggregate_neighbors(z, op="sum").data
                np.testing.assert_array_equal(again, first)
                with pytest.raises(RuntimeError, match="covers 1 conv layers"):
                    dist_graph.aggregate_neighbors(z, op="sum")
            # Outside every scope nothing is restricted: no layer budget.
            dist_graph.aggregate_neighbors(z, op="sum")
            dist_graph.aggregate_neighbors(z, op="sum")
            return outcome

        result = run_distributed(worker, 2, worker_args=shards)
        assert result.results == ["raised", "raised"]
