"""Distributed neighbour-sampled training: cooperative protocol + parity.

The contract under test: a 2-worker distributed sampled run trains the same
mini-batch sequence as the single-machine sampled run with the same seed —
identical sampled edge multisets per batch, matching loss trajectories, and
shrunken per-batch halo exchanges.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.core.config import SARConfig
from repro.graph import build_mfg_pipeline
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import (
    NeighborSampler,
    NeighborSamplingConfig,
    epoch_seed_order,
)
from repro.sample.distributed import DistributedNeighborSampler
from repro.distributed.cluster import run_distributed
from repro.training.trainer import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.prefetch import THREAD_PREFIX
from repro.utils.seed import set_seed


def _make_model(feature_dim, num_classes, kind="sage"):
    if kind == "sage":
        return GraphSageNet(feature_dim, 16, num_classes, num_layers=2,
                            dropout=0.0, use_batch_norm=False)
    return GATNet(feature_dim, 8, num_classes, num_layers=2, num_heads=2,
                  dropout=0.0, use_batch_norm=False)


def _fixed_weights(feature_dim, num_classes, kind):
    set_seed(0)
    template = _make_model(feature_dim, num_classes, kind)
    return [p.data.copy() for p in template.parameters()]


def _with_weights(model, weights):
    for param, value in zip(model.parameters(), weights):
        param.data[...] = value
    return model


# --------------------------------------------------------------------------- #
# protocol-level structural parity
# --------------------------------------------------------------------------- #
def _sample_worker(rank, comm, shard, *, fanouts, replace, batch_ids, epoch, batch_index):
    sampler = DistributedNeighborSampler(shard, comm, fanouts, replace=replace, seed=77)
    blocks = sampler.sample(np.asarray(batch_ids), epoch, batch_index)
    out = []
    for grid in blocks:
        src_global = []
        dst_global = []
        for block in grid[None]:
            src_global.append(
                shard.book.to_global(block.src_rank,
                                     block.required_src_local[block.src_index])
            )
            dst_global.append(shard.book.to_global(rank, block.dst_local))
        out.append((np.concatenate(src_global), np.concatenate(dst_global)))
    return out


@pytest.mark.parametrize("world_size", [2, 3])
# ids: the replace flag of a (3, 4) sample, or "full" for fan-out -1
@pytest.mark.parametrize("fanouts, replace", [((3, 4), False), ((3, 4), True), ((-1, -1), False)],
                         ids=["False", "True", "full"])
def test_distributed_sample_matches_single_machine(sbm_graph, rng, world_size, fanouts, replace):
    """Union of the workers' sampled edges == the single-machine sample; at
    fan-out -1 it is the batch's MFG, destination by destination."""
    graph = sbm_graph
    book = PartitionBook(partition_graph(graph, world_size, seed=0), world_size)
    shards = create_shards(graph, book)
    train_ids = np.sort(rng.choice(graph.num_nodes, 24, replace=False))

    result = run_distributed(_sample_worker, world_size, worker_args=shards,
                             fanouts=fanouts, replace=replace, batch_ids=train_ids,
                             epoch=1, batch_index=0)

    reference = NeighborSampler(graph, fanouts, replace=replace, seed=77)
    pipeline = reference.sample(train_ids, epoch=1, batch_index=0)
    for layer in range(2):
        block = pipeline.layer_block(layer)
        ref = np.stack([block.src_nodes[block.src], block.dst_nodes[block.dst]])
        ref = ref[:, np.lexsort(ref)]
        merged_src = np.concatenate([r[layer][0] for r in result.results])
        merged_dst = np.concatenate([r[layer][1] for r in result.results])
        got = np.stack([merged_src, merged_dst])
        got = got[:, np.lexsort(got)]
        np.testing.assert_array_equal(ref, got)
        if fanouts == (-1, -1):
            # per destination, the same multiset of sources as the MFG block
            expected = build_mfg_pipeline(graph, train_ids, 2).layer_block(layer)
            mfg_edges = np.stack([expected.src_nodes[expected.src],
                                  expected.dst_nodes[expected.dst]])
            np.testing.assert_array_equal(got, mfg_edges[:, np.lexsort(mfg_edges)])


def _full_grid_worker(rank, comm, shard):
    sampler = DistributedNeighborSampler(shard, comm, [-1])
    (grid,) = sampler.sample(np.arange(shard.num_total_nodes))
    comm.barrier()
    sampler.release()
    return grid[None]


@pytest.mark.parametrize("world_size", [2, 3])
def test_full_fanout_grid_over_every_node_is_the_shards_row(sbm_graph, world_size):
    """Shards and sampled grids share one G_{p,q} cutter: a fan-out -1 sample
    of every node gives each worker exactly its shard's block row.  Only
    ``edge_pos``, which sampled grids do not carry, and the order of the
    edges differ: shards list them in edge-id order, sampled grids in the
    draw's order, and plans sort both by ``(dst, src)``."""
    book = PartitionBook(partition_graph(sbm_graph, world_size, seed=0), world_size)
    shards = create_shards(sbm_graph, book)
    result = run_distributed(_full_grid_worker, world_size, worker_args=shards)
    for shard, grid in zip(shards, result.results):
        assert len(grid) == len(shard.blocks) == world_size
        for sampled, own in zip(grid, shard.blocks):
            assert (sampled.src_rank, sampled.dst_rank, sampled.num_dst) == \
                (own.src_rank, own.dst_rank, own.num_dst)
            for field in ("required_src_local", "src_index", "dst_local"):
                assert getattr(sampled, field).dtype == getattr(own, field).dtype
            np.testing.assert_array_equal(sampled.required_src_local, own.required_src_local)
            edges = [np.stack([block.dst_local, block.src_index]) for block in (sampled, own)]
            np.testing.assert_array_equal(*(pairs[:, np.lexsort(pairs[::-1])] for pairs in edges))
            assert sampled.edge_pos is None


def test_epoch_seed_order_identical_everywhere():
    seeds = np.arange(100, 150)
    a = epoch_seed_order(9, seeds, epoch=4, shuffle=True)
    b = epoch_seed_order(9, seeds, epoch=4, shuffle=True)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, epoch_seed_order(9, seeds, epoch=5, shuffle=True))
    np.testing.assert_array_equal(epoch_seed_order(9, seeds, 4, False), seeds)


# --------------------------------------------------------------------------- #
# end-to-end trainer parity
# --------------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_two_worker_sampled_run_matches_single_machine(small_dataset, kind):
    weights = _fixed_weights(small_dataset.feature_dim, small_dataset.num_classes, kind)
    sampling = NeighborSamplingConfig(fanouts=(4, 4), batch_size=48)
    common = dict(num_epochs=3, lr=0.05, eval_every=0, seed=0)

    single = FullBatchTrainer(
        _with_weights(
            _make_model(small_dataset.feature_dim, small_dataset.num_classes, kind),
            weights,
        ),
        small_dataset,
        TrainingConfig(sampler=sampling, **common),
    ).train()

    dist = DistributedTrainer(
        small_dataset,
        lambda dim: _with_weights(
            _make_model(dim, small_dataset.num_classes, kind), weights
        ),
        num_workers=2,
        config=TrainingConfig(sampler=sampling, **common),
    ).run()

    np.testing.assert_allclose(dist.training.losses(), single.losses(),
                               rtol=1e-4, atol=1e-6)
    for split in ("train", "val", "test"):
        assert abs(
            dist.training.final_accuracies[split] - single.final_accuracies[split]
        ) <= 0.05


@pytest.mark.slow
def test_sampled_halo_traffic_shrinks_vs_full_batch(small_dataset):
    weights = _fixed_weights(small_dataset.feature_dim, small_dataset.num_classes, "sage")
    common = dict(num_epochs=2, lr=0.05, eval_every=0, seed=0)

    def factory(dim):
        return _with_weights(
            _make_model(dim, small_dataset.num_classes, "sage"), weights
        )

    sampled = DistributedTrainer(
        small_dataset, factory, num_workers=2,
        config=TrainingConfig(
            sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=60), **common
        ),
    ).run()
    full = DistributedTrainer(
        small_dataset, factory, num_workers=2, config=TrainingConfig(**common),
    ).run()

    halo = "forward_halo"
    assert sampled.cluster.total_received_by_tag()[halo] < \
        full.cluster.total_received_by_tag()[halo]
    assert np.isfinite(sampled.training.final_test_accuracy)


@pytest.mark.slow
@pytest.mark.parametrize("num_workers, max_resident", [(0, 2), (1, 2), (1, 3)],
                         ids=["inline", "one-ahead", "two-ahead"])
def test_overlap_never_changes_training(small_dataset, num_workers, max_resident):
    """Sampling batches ahead of the compute (or not) must be a pure
    scheduling change: bit-identical losses and equal frontier bytes, the
    frontier traffic under its own tag."""
    weights = _fixed_weights(small_dataset.feature_dim, small_dataset.num_classes, "sage")
    common = dict(num_epochs=2, lr=0.05, eval_every=0, seed=0)

    def factory(dim):
        return _with_weights(
            _make_model(dim, small_dataset.num_classes, "sage"), weights
        )

    def train(num_workers, max_resident):
        return DistributedTrainer(
            small_dataset, factory, num_workers=2,
            config=TrainingConfig(
                sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=48,
                                               num_workers=num_workers,
                                               max_resident_batches=max_resident),
                **common,
            ),
        ).run()

    # The reference samples every batch on the training thread.
    run, reference = train(num_workers, max_resident), train(0, 2)
    np.testing.assert_array_equal(run.training.losses(), reference.training.losses())
    # The cooperative frontier merges travel under their own tag.
    frontier = run.cluster.total_received_by_tag().get("sample_frontier", 0)
    assert frontier > 0
    assert frontier == reference.cluster.total_received_by_tag().get("sample_frontier", 0)


class _BoomSage(GraphSageNet):
    """Rank 1 raises on its second training forward, reporting whether a
    loader prefetch thread is alive at that moment."""

    def set_comm(self, comm):
        super().set_comm(comm)
        self.rank, self.training_forwards = comm.rank, 0

    def forward(self, graph, x):
        if self.training and self.rank == 1:
            self.training_forwards += 1
            if self.training_forwards == 2:
                in_flight = any(t.name.startswith(f"{THREAD_PREFIX}-loader")
                                for t in threading.enumerate())
                raise RuntimeError(f"model boom (loader in flight: {in_flight})")
        return super().forward(graph, x)


def test_sampled_worker_fault_fails_the_run_promptly(small_dataset):
    """A rank failing mid-epoch abandons its loader's in-flight batch (which
    may be parked in a frontier collective) instead of waiting on it."""
    config = TrainingConfig(
        num_epochs=2, lr=0.05, eval_every=0, seed=0,
        sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32),
    )
    trainer = DistributedTrainer(
        small_dataset,
        lambda dim: _BoomSage(dim, 8, small_dataset.num_classes, num_layers=2,
                              dropout=0.0, use_batch_norm=False),
        num_workers=2, config=config, timeout_s=60,
    )
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"model boom \(loader in flight: True\)"):
        trainer.run()
    assert time.monotonic() - start < 10


def test_drop_last_leaving_no_batch_is_rejected_by_both_trainers(small_dataset):
    """A sampled epoch with no batch is an error on one machine and on every
    worker alike — not zero-step epochs recording NaN losses."""
    config = TrainingConfig(
        num_epochs=2, eval_every=0, seed=0,
        sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=1000, drop_last=True),
    )

    def factory(dim):
        return _make_model(dim, small_dataset.num_classes, "sage")

    with pytest.raises(ValueError, match="drop_last"):
        FullBatchTrainer(factory(small_dataset.feature_dim), small_dataset, config)
    trainer = DistributedTrainer(small_dataset, factory, num_workers=2, config=config,
                                 timeout_s=60)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="drop_last"):
        trainer.run()
    assert time.monotonic() - start < 10


@pytest.mark.slow
def test_three_worker_sampled_run_completes(small_dataset):
    config = TrainingConfig(
        num_epochs=2, lr=0.05, eval_every=2, seed=0,
        sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32),
    )
    result = DistributedTrainer(
        small_dataset,
        lambda dim: _make_model(dim, small_dataset.num_classes, "sage"),
        num_workers=3,
        config=config,
    ).run()
    assert len(result.training.records) == 2
    assert np.isfinite(result.training.final_test_accuracy)


def test_hetero_distributed_sampling_matches_single_machine():
    """A relational graph samples cooperatively like a homogeneous one: the
    R-GCN run trains the single machine's batches."""
    from repro.datasets import make_hetero_sbm_dataset
    from repro.nn.models import RGCNNet

    dataset = make_hetero_sbm_dataset(
        name="h", num_nodes=60, num_classes=3, feature_dim=6,
        relation_specs={"a": {"p_in": 0.2, "p_out": 0.02}}, seed=0,
    )

    def model(dim):
        return RGCNNet(dim, 8, 3, ["a"], num_layers=2, num_bases=None, dropout=0.0,
                       use_batch_norm=False)

    set_seed(0)
    weights = [p.data.copy() for p in model(6).parameters()]

    def factory(dim):
        return _with_weights(model(dim), weights)

    config = TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0,
                            sampler=NeighborSamplingConfig(fanouts=(2, 2), batch_size=8))
    single = FullBatchTrainer(factory(6), dataset, config).train()
    dist = DistributedTrainer(dataset, factory, num_workers=2, config=config).run()
    np.testing.assert_allclose(dist.training.losses(), single.losses(), rtol=1e-6)


# --------------------------------------------------------------------------- #
# the distributed sampled runs are pinned bit for bit
# --------------------------------------------------------------------------- #
#: the per-batch restrictions a worker trains under: cooperative sampling
#: (without and with replacement, sampled inline) and the MFG of the train
#: seeds (all 120 of them in one fan-out -1 batch, paper Appendix B).
_PINNED_RUNS = {
    "sampled": dict(sampler=NeighborSamplingConfig(fanouts=(3, 4), batch_size=24)),
    "replace": dict(sampler=NeighborSamplingConfig(fanouts=(-1, 2), batch_size=17,
                                                   replace=True, num_workers=0,
                                                   drop_last=True)),
    "full_fanout": dict(sampler=NeighborSamplingConfig(fanouts=(-1, -1), batch_size=120,
                                                       shuffle=False)),
}


@pytest.mark.parametrize("case, mode, world_size, expected", [
    ("sampled", "sar", 2, "12fad79c95699a01"),
    ("sampled", "sar", 3, "33493d9dc32567a6"),
    ("sampled", "dp", 2, "12fad79c95699a01"),
    ("sampled", "dp", 3, "33493d9dc32567a6"),
    ("replace", "sar", 2, "516c8de184316533"),
    ("replace", "sar", 3, "fc6f23017831e12b"),
    ("replace", "dp", 2, "516c8de184316533"),
    ("replace", "dp", 3, "fc6f23017831e12b"),
    ("full_fanout", "sar", 2, "4b286bee921b31d1"),
    ("full_fanout", "sar", 3, "d34d2cbe233a9746"),
    ("full_fanout", "dp", 2, "4b286bee921b31d1"),
    ("full_fanout", "dp", 3, "d34d2cbe233a9746"),
])
def test_distributed_runs_are_pinned(small_dataset, case, mode, world_size, expected):
    """Per-epoch losses and the assembled predictions of a SAR / DP run are
    fixed bit for bit, whichever way the workers derive their batches."""
    weights = _fixed_weights(small_dataset.feature_dim, small_dataset.num_classes, "sage")
    trainer = DistributedTrainer(
        small_dataset,
        lambda dim: _with_weights(_make_model(dim, small_dataset.num_classes, "sage"),
                                  weights),
        num_workers=world_size, sar_config=SARConfig(mode=mode),
        config=TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0,
                              **_PINNED_RUNS[case]),
    )
    result = trainer.run()
    sha = hashlib.sha256(np.asarray(result.training.losses(), dtype="<f8").tobytes())
    predictions = trainer.assemble_global_predictions(result)
    sha.update(np.ascontiguousarray(predictions, dtype="<f4").tobytes())
    assert sha.hexdigest()[:16] == expected
