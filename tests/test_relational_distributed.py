"""Relational graphs on every distributed path: R-GCN on ``mag_mini``.

The contract under test: a relation is a key wherever a worker touches
edges, so nothing that runs on a homogeneous shard is refused on a
relational one —

* cooperative sampled (with and without replacement, and at fan-out -1 over
  every train seed: the MFG restriction of paper Appendix B) R-GCN training
  under SAR and DP trains what one machine trains, each
  worker's restricted forward running over ``{relation: grid}`` layers;
  the runs are pinned bit for bit and equal on threads and processes;
* layer-wise inference on a relational graph reads a feature store as it
  reads the matrix, and relational shards serve rows from one shared
  DenseStore;
* every serving backend serves R-GCN rows bit-identical to the full-graph
  forward;
* a layer that aggregates over the relation ``None`` (SAGE, GAT) on a
  relational graph fails with one message on one machine and on every
  worker, promptly.
"""

from __future__ import annotations

import functools
import hashlib
import time

import numpy as np
import pytest

from repro.core.config import SARConfig
from repro.core.dist_graph import DistributedGraph
from repro.datasets import make_hetero_sbm_dataset, ogbn_mag_mini
from repro.distributed.cluster import run_distributed
from repro.distributed.mp_backend import run_multiprocess
from repro.nn.models import GATNet, GraphSageNet, RGCNNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import NeighborSamplingConfig
from repro.sample.inference import LayerWiseInference
from repro.serving import ServingConfig, create_server
from repro.store import DenseStore
from repro.tensor import Tensor, no_grad
from repro.training.trainer import (
    DistributedTrainer,
    FullBatchTrainer,
    TrainingConfig,
    distributed_train_worker,
)
from repro.utils.seed import set_seed, temp_seed
from reference_kernels import ReferenceStore


@functools.lru_cache(maxsize=None)
def _mag():
    dataset = ogbn_mag_mini(scale=0.2)
    dataset.attach_to_graph()
    return dataset


@functools.lru_cache(maxsize=None)
def _rgcn_state():
    dataset = _mag()
    with temp_seed(0):
        return _rgcn(dataset.feature_dim).state_dict()


def _rgcn(dim, dropout=0.0, use_batch_norm=False):
    dataset = _mag()
    return RGCNNet(dim, 16, dataset.num_classes, dataset.graph.relation_names,
                   num_layers=2, dropout=dropout, use_batch_norm=use_batch_norm)


def _rgcn_factory(dim):
    model = _rgcn(dim)
    model.load_state_dict(_rgcn_state())
    return model


#: the per-batch restrictions a worker trains R-GCN under; "full_fanout" is
#: the MFG of all 160 train seeds in one batch.
_RUNS = {
    "sampled": dict(sampler=NeighborSamplingConfig(fanouts=(3, 4), batch_size=24)),
    "replace": dict(sampler=NeighborSamplingConfig(fanouts=(3, 4), batch_size=24,
                                                   replace=True, num_workers=0)),
    "full_fanout": dict(sampler=NeighborSamplingConfig(fanouts=(-1, -1), batch_size=160,
                                                       shuffle=False)),
}


def _config(case, **extra):
    return TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0, **_RUNS[case], **extra)


@functools.lru_cache(maxsize=None)
def _single_machine_losses(case):
    dataset = _mag()
    return FullBatchTrainer(_rgcn_factory(dataset.feature_dim), dataset,
                            _config(case)).train().losses()


def _digest(losses, predictions) -> str:
    sha = hashlib.sha256(np.asarray(losses, dtype="<f8").tobytes())
    sha.update(np.ascontiguousarray(predictions, dtype="<f4").tobytes())
    return sha.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# training: sampled, with replacement, full fan-out — under SAR and DP, pinned
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case, mode, world_size, expected", [
    ("sampled", "sar", 2, "58a3cb67338408af"),
    ("sampled", "sar", 3, "34b9f52b4abbc6ac"),
    ("sampled", "dp", 2, "58a3cb67338408af"),
    ("sampled", "dp", 3, "34b9f52b4abbc6ac"),
    ("replace", "sar", 2, "7bb417f1b4a8a46a"),
    ("replace", "sar", 3, "c1dea51ac0b29275"),
    ("replace", "dp", 2, "7bb417f1b4a8a46a"),
    ("replace", "dp", 3, "c1dea51ac0b29275"),
    ("full_fanout", "sar", 2, "58bd4767fd19c9e7"),
    ("full_fanout", "sar", 3, "d20dc7d893d6d223"),
    ("full_fanout", "dp", 2, "58bd4767fd19c9e7"),
    ("full_fanout", "dp", 3, "d20dc7d893d6d223"),
])
def test_relational_distributed_runs_are_pinned(case, mode, world_size, expected):
    """Distributed R-GCN sampled training trains the single machine's
    batches: per-epoch losses within 1e-6 relative of one machine's (the
    workers sum each relation's halo blocks in another order), and the
    losses and assembled predictions pinned — the same digest under SAR and
    DP."""
    dataset = _mag()
    trainer = DistributedTrainer(dataset, _rgcn_factory, num_workers=world_size,
                                 sar_config=SARConfig(mode=mode), config=_config(case))
    result = trainer.run()
    np.testing.assert_allclose(result.training.losses(), _single_machine_losses(case),
                               rtol=1e-6, atol=0)
    assert _digest(result.training.losses(),
                   trainer.assemble_global_predictions(result)) == expected


def test_relational_mfg_restriction_shrinks_the_halo():
    """The restricted R-GCN forward fetches only what its per-relation grids
    read: an epoch restricted to the train seeds' receptive field moves fewer
    halo bytes than a full-batch one (both end in the same unrestricted
    evaluation forward)."""
    dataset = _mag()

    def halo_bytes(**extra):
        config = TrainingConfig(num_epochs=1, eval_every=0, seed=0, **extra)
        run = DistributedTrainer(dataset, _rgcn_factory, num_workers=2, config=config).run()
        return run.cluster.total_received_by_tag()["forward_halo"]

    assert halo_bytes(**_RUNS["full_fanout"]) < halo_bytes()


def _training_job(rank, comm, shard, *, config):
    dataset = _mag()
    out = distributed_train_worker(rank, comm, shard, model_factory=_rgcn_factory,
                                   feature_dim=dataset.feature_dim,
                                   num_classes=dataset.num_classes, config=config,
                                   sar_config=SARConfig("sar"))
    return [r.loss for r in out["records"]], out["local_logits"]


def test_relational_sampled_training_thread_equals_mp():
    """The relational sampled loop — one keyed frontier allgather per layer
    over every relation, one halo routing exchange per relation and layer —
    gives the same bits and moves the same bytes on forked processes."""
    dataset = _mag()
    shards = create_shards(dataset.graph, PartitionBook(
        partition_graph(dataset.graph, 2, seed=0), 2))
    config = _config("sampled")
    threads = run_distributed(_training_job, 2, worker_args=shards, config=config)
    processes = run_multiprocess(_training_job, world_size=2, worker_args=shards,
                                 timeout_s=120, config=config)
    for (losses, logits), (mp_losses, mp_logits) in zip(threads.results, processes.results):
        assert mp_losses == losses
        np.testing.assert_array_equal(mp_logits, logits)
    for stats, mp_stats in zip(threads.comm_stats, processes.comm_stats):
        assert mp_stats.received_by_tag == stats.received_by_tag
    assert threads.total_received_by_tag()["sample_frontier"] > 0


# --------------------------------------------------------------------------- #
# feature stores on a relational graph
# --------------------------------------------------------------------------- #
def test_relational_dense_store_equals_the_matrix():
    """The trainer evaluates layer-wise over the dataset's matrix; the same
    engine over a DenseStore or a protocol-only store gives those logits."""
    dataset = _mag()
    trainer = FullBatchTrainer(_rgcn_factory(dataset.feature_dim), dataset,
                               _config("sampled", eval_inference="layerwise",
                                       eval_batch_size=64))
    trainer.train()
    _, logits = trainer.evaluate()
    engine = LayerWiseInference(trainer.model, dataset.graph, batch_size=64)
    for store in (DenseStore(dataset.features), ReferenceStore(dataset.features)):
        np.testing.assert_array_equal(engine.run(store), logits)


# --------------------------------------------------------------------------- #
# serving: every backend, bit-identical to the full-graph forward
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("byte_budget", [None, 1 << 20], ids=["no-cache", "1MiB"])
@pytest.mark.parametrize("backend, world_size", [("local", 1), ("distributed", 2),
                                                 ("distributed", 3), ("mp", 2), ("mp", 3)])
def test_relational_serving_is_bit_identical(backend, world_size, byte_budget):
    """R-GCN rows served over the whole relational Graph or its shards — on
    threads or processes, cache off or on, cold or warm — are the eval-mode
    full-graph forward's, bit for bit."""
    dataset = _mag()
    set_seed(0)
    model = _rgcn(dataset.feature_dim, dropout=0.5, use_batch_norm=True).eval()
    with no_grad():
        reference = model(dataset.graph, Tensor(dataset.features)).data
    graph = dataset.graph
    if backend != "local":
        graph = create_shards(graph, PartitionBook(
            partition_graph(graph, world_size, seed=0), world_size))
    streams = [[5], [3, 1, 4, 1, 5], [0, 399], list(range(40))]
    config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=byte_budget)
    with create_server(model, graph, dataset.features, config) as server:
        for _ in ("cold", "warm"):
            for ids in streams:
                np.testing.assert_array_equal(server.predict(ids), reference[ids])


@pytest.mark.parametrize("backend", ["distributed", "mp"])
def test_relational_shards_serve_one_dense_store(backend):
    """One DenseStore is the second feature form on relational shards: every
    worker reads it as-is (no per-worker KV store, so no store telemetry),
    and a replace() in the parent is what the next batch serves."""
    dataset = _mag()
    set_seed(0)
    model = _rgcn(dataset.feature_dim, dropout=0.5, use_batch_norm=True).eval()
    fresh = np.ascontiguousarray(dataset.features[::-1])

    def reference(features):
        with no_grad():
            return model(dataset.graph, Tensor(features)).data

    shards = create_shards(dataset.graph, PartitionBook(
        partition_graph(dataset.graph, 2, seed=0), 2))
    store = DenseStore(dataset.features)
    ids = [0, 5, 17, 399]
    config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, store, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference(dataset.features)[ids])
        assert server.stats()["feature_store"] is None
        store.replace(fresh)
        np.testing.assert_array_equal(server.predict(ids), reference(fresh)[ids])


# --------------------------------------------------------------------------- #
# a layer over the relation None on a relational graph: one message, no hang
# --------------------------------------------------------------------------- #
def _hetero_dataset():
    return make_hetero_sbm_dataset(
        name="h", num_nodes=60, num_classes=3, feature_dim=6,
        relation_specs={"a": {"p_in": 0.2, "p_out": 0.02},
                        "b": {"p_in": 0.1, "p_out": 0.05}}, seed=0,
    )


def _homogeneous_model(kind, dim, num_classes):
    if kind == "sage":
        return GraphSageNet(dim, 8, num_classes, num_layers=2, dropout=0.0,
                            use_batch_norm=False)
    return GATNet(dim, 4, num_classes, num_layers=2, num_heads=2, dropout=0.0,
                  use_batch_norm=False)


_MESSAGE = "no relation None; this graph has relations ['a', 'b']"


def _forward_error(rank, comm, shard, *, kind, num_classes):
    model = _homogeneous_model(kind, shard.node_data["feat"].shape[1], num_classes)
    graph = DistributedGraph(shard, comm)
    graph.begin_step()
    try:
        model(graph, Tensor(shard.node_data["feat"]))
    except KeyError as exc:
        return exc.args[0]
    return None


@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_none_relation_layer_on_relational_graph_fails_alike_everywhere(kind):
    dataset = _hetero_dataset()
    config = TrainingConfig(num_epochs=1, eval_every=0)

    def factory(dim):
        return _homogeneous_model(kind, dim, dataset.num_classes)

    with pytest.raises(KeyError) as single:
        FullBatchTrainer(factory(dataset.feature_dim), dataset, config).train()
    assert single.value.args[0] == _MESSAGE

    trainer = DistributedTrainer(dataset, factory, num_workers=2, config=config,
                                 timeout_s=60)
    per_rank = run_distributed(_forward_error, 2, worker_args=trainer.shards,
                               kind=kind, num_classes=dataset.num_classes)
    assert per_rank.results == [_MESSAGE, _MESSAGE]
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"no relation None; this graph has relations"):
        trainer.run()
    assert time.monotonic() - start < 10
