"""Tests for the true multi-process backend (one OS process per worker).

Kept intentionally small (≤3 workers, a tiny graph) — the thread backend is
the workhorse; these tests demonstrate that the SAR machinery only depends on
the abstract Communicator interface and runs unchanged across processes, and
that the parent never hangs or leaks children when a worker fails.
"""

import functools
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.core import SARConfig
from repro.datasets import make_hetero_sbm_dataset, make_sbm_dataset
from repro.distributed import plane
from repro.distributed.cluster import run_distributed
from repro.distributed.comm import STREAM_KEY_PREFIX
from repro.distributed.mp_backend import (
    MultiprocessServiceCluster,
    WorkerFailedError,
    run_multiprocess,
)
from repro.graph import stochastic_block_model
from repro.nn.models import GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample import NeighborSamplingConfig
from repro.tensor import Tensor
from repro.training.trainer import FullBatchTrainer, TrainingConfig
from repro.utils.prefetch import THREAD_PREFIX
from repro.utils.seed import temp_seed


def _collective_worker(rank, comm):
    ws = comm.world_size
    total = comm.allreduce(np.array([rank + 1.0]))
    comm.publish("x", np.full(3, rank, dtype=np.float32))
    fetched = comm.fetch((rank + 1) % ws, "x")
    exchanged = comm.exchange("e", {q: np.array([float(rank)], dtype=np.float32)
                                    for q in range(ws) if q != rank})
    gathered = comm.allgather(np.array([rank], dtype=np.int64))
    comm.barrier()
    return (float(total[0]), float(fetched[0]),
            sorted((k, float(v[0])) for k, v in exchanged.items()),
            [int(g[0]) for g in gathered])


def _stats_worker(rank, comm):
    payload = np.ones(3, dtype=np.float32)
    comm.exchange("s", {q: payload for q in range(comm.world_size) if q != rank})
    return dict(comm.stats.sent_by_tag), dict(comm.stats.received_by_tag)


def _sar_aggregation_worker(rank, comm, shard, z_full=None):
    from repro.core import DistributedGraph

    dist_graph = DistributedGraph(shard, comm, SARConfig("sar"))
    dist_graph.begin_step()
    z = Tensor(z_full[shard.global_node_ids], requires_grad=True)
    out = dist_graph.aggregate_neighbors(z, op="mean")
    (out ** 2).sum().backward()
    return out.data, z.grad


def _stream_keys_survive_clear_worker(rank, comm):
    # A keyed-stream payload published by a background sampler must survive
    # the clear_published that begin_step issues at iteration boundaries,
    # while ordinary publishes are swept as usual.
    ws = comm.world_size
    comm.publish(STREAM_KEY_PREFIX + "probe", np.array([float(rank)], dtype=np.float32))
    comm.publish("swept", np.zeros(1, dtype=np.float32))
    comm.clear_published()
    comm.barrier()
    fetched = comm.fetch((rank + 1) % ws, STREAM_KEY_PREFIX + "probe", tag="sample_frontier")
    comm.barrier()
    comm.release_keyed("probe")
    return float(fetched[0])


def _keyed_allgather_worker(rank, comm):
    rounds = []
    for step in range(3):
        gathered = comm.allgather_keyed(
            f"k/{step}", np.array([rank * 10 + step], dtype=np.int64), tag="sample_frontier"
        )
        rounds.append([int(g[0]) for g in gathered])
    comm.barrier()
    for step in range(3):
        comm.release_keyed(f"k/{step}")
    return rounds


def _sampled_model(dim, num_classes=4):
    from repro.nn.models import GraphSageNet

    with temp_seed(0):
        return GraphSageNet(dim, 8, num_classes, num_layers=2,
                            dropout=0.0, use_batch_norm=False)


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


def _boom_model(dim, num_classes=4):
    return _BoomSage(dim, 8, num_classes, num_layers=2, dropout=0.0, use_batch_norm=False)


def _sampled_training_worker(rank, comm, shard, *, config,
                             feature_dim, num_classes, model_factory=_sampled_model):
    from repro.training.trainer import distributed_train_worker

    out = distributed_train_worker(
        rank, comm, shard,
        model_factory=model_factory,
        feature_dim=feature_dim,
        num_classes=num_classes,
        config=config,
        sar_config=SARConfig("sar"),
    )
    return [r.loss for r in out["records"]]


def _parity_dataset():
    dataset = make_sbm_dataset(
        name="mp-parity", num_nodes=120, num_classes=4, feature_dim=8,
        p_in=0.12, p_out=0.01, noise=1.5,
        train_frac=0.5, val_frac=0.2, test_frac=0.3, seed=5,
    )
    dataset.attach_to_graph()
    return dataset


def _gat_model(dim, num_classes=4):
    from repro.nn.models import GATNet

    with temp_seed(0):
        return GATNet(dim, 8, num_classes, num_layers=2, num_heads=2,
                      dropout=0.0, use_batch_norm=True)


def _sar_gat_training_worker(rank, comm, shard, *, config, feature_dim, num_classes):
    from repro.training.trainer import distributed_train_worker

    out = distributed_train_worker(
        rank, comm, shard,
        model_factory=_gat_model,
        feature_dim=feature_dim,
        num_classes=num_classes,
        config=config,
        sar_config=SARConfig("sar"),
    )
    return [r.loss for r in out["records"]]


RGCN_RELATIONS = ("cites", "writes")


def _rgcn_model(dim, num_classes=4):
    from repro.nn.models import RGCNNet

    with temp_seed(0):
        return RGCNNet(dim, 8, num_classes, RGCN_RELATIONS, num_layers=2,
                       dropout=0.0, use_batch_norm=True)


def _sar_rgcn_training_worker(rank, comm, shard, *, config, feature_dim, num_classes):
    from repro.training.trainer import distributed_train_worker

    out = distributed_train_worker(
        rank, comm, shard,
        model_factory=_rgcn_model,
        feature_dim=feature_dim,
        num_classes=num_classes,
        config=config,
        sar_config=SARConfig("sar"),
    )
    return [r.loss for r in out["records"]]


SAGE_IN, SAGE_HIDDEN, SAGE_CLASSES = 8, 16, 4


def _sage_model(dim, num_classes=SAGE_CLASSES, dropout=0.0):
    from repro.nn.models import GraphSageNet

    # Layer 0 widens (8 -> 16: aggregates first, an 8-wide halo); layer 1
    # narrows (16 -> 4: projects first, a 4-wide halo).
    with temp_seed(0):
        return GraphSageNet(dim, SAGE_HIDDEN, num_classes, num_layers=2,
                            dropout=dropout, use_batch_norm=False)


def _sage_training_worker(rank, comm, shard, *, config, sar_config, feature_dim, num_classes,
                          dropout=0.0):
    from repro.training.trainer import distributed_train_worker

    out = distributed_train_worker(
        rank, comm, shard,
        model_factory=functools.partial(_sage_model, dropout=dropout),
        feature_dim=feature_dim,
        num_classes=num_classes,
        config=config,
        sar_config=sar_config,
    )
    return [r.loss for r in out["records"]]


def _failing_worker(rank, comm):
    if rank == 1:
        raise ValueError("mp boom")
    comm.barrier()  # would deadlock without failure propagation
    return True


def _dying_worker(rank, comm):
    if rank == 1:
        os._exit(13)  # silent death: no result, no exception handler
    comm.barrier()
    return True


def _dying_peer_fetch_worker(rank, comm):
    if rank == 1:
        os._exit(5)
    return float(comm.fetch(1, "never-published")[0])


def _sleeping_worker(rank, comm):
    if rank == 1:
        time.sleep(60)  # far past the test's 2 s cluster timeout
    return True


def _dies_holding_control_lock_worker(rank, comm):
    if rank == 1:
        comm._plane.control_lock.acquire()  # the lock every barrier arrival takes
        os._exit(6)
    comm.barrier()
    return True


def _dies_holding_directory_lock_worker(rank, comm):
    if rank == 1:
        comm._plane.directory_locks[1].acquire()  # as if killed mid-publish
        os._exit(7)
    return float(comm.fetch(1, "half-published")[0])


def _dies_inside_barrier_worker(rank, comm):
    if rank == 1:
        threading.Timer(0.3, os._exit, (8,)).start()
        comm.barrier()  # parked here, counted as arrived, when the timer fires
    time.sleep(1.0)
    comm.barrier()  # completes on the dead rank's arrival
    comm.barrier()  # ...and this one never can
    return True


def _dies_between_publish_and_wake_worker(rank, comm):
    if rank == 1:
        comm._plane.wake = lambda: os._exit(9)
        time.sleep(0.3)  # rank 0 is parked on the key by now
        comm.publish("unannounced", np.ones(2))
    got = float(comm.fetch(1, "unannounced")[0])  # found on the next wait slice
    comm.barrier()
    return got


def _raises_after_publishing_worker(rank, comm):
    comm.publish("last-words", np.full(2, float(rank)))
    if rank == 1:
        raise ValueError("mp boom after publish")
    got = float(comm.fetch(1, "last-words")[0])
    comm.barrier()
    return got


#: the arena capacity the "publish_exceeds_arena" fault runs under
_TINY_ARENA_BYTES = 1 << 16


def _oversized_publish_worker(rank, comm):
    if rank == 1:
        comm.publish("too-big", np.zeros(2 * _TINY_ARENA_BYTES, dtype=np.uint8))
    comm.barrier()
    return True


#: failure mode -> (job body failing on rank 1, what the parent's error names)
_FAULTS = {
    "raise": (_failing_worker, "mp boom"),
    "silent_death": (_dying_worker, r"rank 1: worker process died without posting"),
    "peer_blocked_in_fetch": (_dying_peer_fetch_worker, "rank 1"),
    "timeout": (_sleeping_worker, r"timed out after 2s waiting for ranks \[1\]"),
    # a rank can die holding any of the data plane's cross-process locks or
    # parked on its doorbell; nothing may wait on it for more than a slice
    "dies_holding_control_lock": (
        _dies_holding_control_lock_worker, r"rank 1: worker process died .*exitcode 6"),
    "dies_holding_directory_lock": (
        _dies_holding_directory_lock_worker, r"rank 1: worker process died .*exitcode 7"),
    "dies_inside_barrier": (
        _dies_inside_barrier_worker, r"rank 1: worker process died .*exitcode 8"),
    "dies_between_publish_and_wake": (
        _dies_between_publish_and_wake_worker, r"rank 1: worker process died .*exitcode 9"),
    "raises_after_publishing": (_raises_after_publishing_worker, "rank 1: .*boom after publish"),
    "publish_exceeds_arena": (
        _oversized_publish_worker,
        rf"rank 1: MemoryError\(\"rank 1: cannot publish 'too-big' "
        rf"\({2 * _TINY_ARENA_BYTES} bytes\): the arena holds \d+ live bytes "
        rf"of {_TINY_ARENA_BYTES}",
    ),
}


def _assert_no_children(timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not mp.active_children(), "run_multiprocess leaked child processes"


class TestMultiprocessBackend:
    @pytest.mark.parametrize("world_size", [1, 2, 3])
    def test_collectives_across_processes(self, world_size):
        results = run_multiprocess(_collective_worker, world_size=world_size,
                                   timeout_s=120).results
        expected_total = world_size * (world_size + 1) / 2
        for rank, (total, fetched, exchanged, gathered) in enumerate(results):
            assert total == expected_total
            assert fetched == float((rank + 1) % world_size)
            assert exchanged == sorted(
                (q, float(q)) for q in range(world_size) if q != rank
            )
            assert gathered == list(range(world_size))

    def test_exchange_stats_accounting(self):
        # 3 float32 values to each of 2 peers = 24 bytes out and in per rank,
        # all under the default "exchange" tag (self-delivery never counts).
        results = run_multiprocess(_stats_worker, world_size=3, timeout_s=120).results
        for sent, received in results:
            assert sent == {"exchange": 24}
            assert received == {"exchange": 24}

    def test_sar_aggregation_matches_single_machine(self):
        graph, _ = stochastic_block_model([30, 30], p_in=0.15, p_out=0.03, seed=1)
        graph = graph.add_self_loops()
        rng = np.random.default_rng(0)
        z_full = rng.standard_normal((graph.num_nodes, 4)).astype(np.float32)
        assignment = partition_graph(graph, 2, seed=0)
        book = PartitionBook(assignment, 2)
        shards = create_shards(graph, book)

        results = run_multiprocess(_sar_aggregation_worker, world_size=2,
                                   worker_args=shards, timeout_s=120, z_full=z_full).results
        stitched = book.scatter_to_global([r[0] for r in results])
        expected = np.asarray(graph.adjacency(normalization="mean") @ z_full)
        np.testing.assert_allclose(stitched, expected, rtol=1e-3, atol=1e-3)

    def test_sar_gat_training_epoch_matches_thread_backend(self):
        # The paper's path on real processes: one full-batch SAR epoch of a
        # GAT (a case-2 aggregator: forward halo fetch, backward re-fetch,
        # error exchange, gradient allreduce) trains to the same loss over
        # the shared-memory plane as over threads, and moves the same bytes.
        dataset = _parity_dataset()
        config = TrainingConfig(num_epochs=1, lr=0.05, eval_every=0, seed=0)
        book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
        shards = create_shards(dataset.graph, book)
        kwargs = dict(config=config, feature_dim=dataset.feature_dim,
                      num_classes=dataset.num_classes)
        threads = run_distributed(_sar_gat_training_worker, 2, worker_args=shards, **kwargs)
        processes = run_multiprocess(
            _sar_gat_training_worker, world_size=2, worker_args=shards, timeout_s=120, **kwargs)
        # One ClusterRunResult shape, whichever cluster ran the job.
        for losses, mp_losses in zip(threads.results, processes.results):
            np.testing.assert_allclose(mp_losses, losses, rtol=0, atol=1e-6)
        received = threads.total_received_by_tag()
        assert {"forward_halo", "backward_refetch", "backward_error", "grad_sync"} <= set(received)
        assert processes.total_received_by_tag() == received
        assert processes.total_bytes_communicated == threads.total_bytes_communicated > 0
        for stats, mp_stats in zip(threads.comm_stats, processes.comm_stats):
            assert mp_stats.received_by_tag == stats.received_by_tag
        # Live-tensor peaks are a function of the worker's own allocation
        # sequence, which the transport does not touch: equal per rank.
        assert processes.peak_memory_bytes == threads.peak_memory_bytes
        assert min(processes.peak_memory_bytes) > 0
        assert all(t > 0 for t in processes.compute_times)

    def test_sar_rgcn_training_epoch_matches_thread_backend(self):
        # R-GCN on processes: one engine pass per relation, each with its own
        # halo routing, re-fetch and error exchange, trains to the same loss
        # and moves the same per-rank bytes as over threads.
        dataset = make_hetero_sbm_dataset(
            "mp-rgcn", num_nodes=120, num_classes=4, feature_dim=8,
            relation_specs={"cites": {"p_in": 0.1, "p_out": 0.01},
                            "writes": {"p_in": 0.05, "p_out": 0.02}}, seed=5,
        )
        dataset.attach_to_graph()
        config = TrainingConfig(num_epochs=1, lr=0.05, eval_every=0, seed=0)
        book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
        shards = create_shards(dataset.graph, book)
        kwargs = dict(config=config, feature_dim=dataset.feature_dim,
                      num_classes=dataset.num_classes)
        threads = run_distributed(_sar_rgcn_training_worker, 2, worker_args=shards, **kwargs)
        processes = run_multiprocess(
            _sar_rgcn_training_worker, world_size=2, worker_args=shards, timeout_s=120, **kwargs)
        for losses, mp_losses in zip(threads.results, processes.results):
            np.testing.assert_allclose(mp_losses, losses, rtol=0, atol=1e-6)
        received = threads.total_received_by_tag()
        assert {"forward_halo", "backward_refetch", "backward_error", "grad_sync"} <= set(received)
        for stats, mp_stats in zip(threads.comm_stats, processes.comm_stats):
            assert mp_stats.received_by_tag == stats.received_by_tag

    @pytest.mark.parametrize(
        "mode, world_size, eval_inference",
        [("sar", 2, "full"), ("sar", 3, "full"), ("dp", 2, "full"), ("dp", 3, "full"),
         ("sar", 2, "layerwise")],
        ids=["sar-2", "sar-3", "dp-2", "dp-3", "sar-2-layerwise"],
    )
    def test_sage_training_epoch_matches_thread_backend(self, mode, world_size,
                                                        eval_inference):
        # GraphSAGE (SAR case 1) with a widening and a narrowing layer: the
        # same loss and the same per-rank bytes on threads and processes.  A
        # worker evaluates with one SAR forward whatever eval_inference says:
        # at 32 rows per batch over 120 nodes a batched walk would move other
        # halo bytes, the forward moves exactly one more halo.
        dataset = _parity_dataset()
        config = TrainingConfig(num_epochs=1, lr=0.05, eval_every=0, seed=0,
                                eval_inference=eval_inference, eval_batch_size=32)
        shards = create_shards(dataset.graph, PartitionBook(
            partition_graph(dataset.graph, world_size, seed=0), world_size))
        threads, processes = self._sage_both_backends(config, SARConfig(mode), shards)
        for losses, mp_losses in zip(threads.results, processes.results):
            np.testing.assert_allclose(mp_losses, losses, rtol=0, atol=1e-6)
        for stats, mp_stats in zip(threads.comm_stats, processes.comm_stats):
            assert mp_stats.received_by_tag == stats.received_by_tag
        if mode != "sar":
            return
        # One training forward + the final evaluation forward, one backward.
        forwards, itemsize = 2, 4
        for rank, stats in enumerate(threads.comm_stats):
            halo_rows = sum(shards[rank].blocks[q].num_required_src
                            for q in range(world_size) if q != rank)
            error_rows = sum(shards[q].blocks[rank].num_required_src
                             for q in range(world_size) if q != rank)
            # Each layer's halo is as wide as the narrower of its widths:
            # the widening layer ships SAGE_IN-wide rows, not SAGE_HIDDEN.
            assert stats.received_by_tag["forward_halo"] == \
                forwards * halo_rows * (SAGE_IN + SAGE_CLASSES) * itemsize
            # Only the narrowing layer exchanges errors: layer 0 aggregates
            # the input features, which need no gradient.
            assert stats.received_by_tag["backward_error"] == \
                error_rows * SAGE_CLASSES * itemsize
            assert "backward_refetch" not in stats.received_by_tag

    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_full_fanout_training_matches_thread_backend(self, mode):
        # Paper Appendix B's restricted epoch as one unshuffled fan-out -1
        # batch over every train seed: the workers sample its grids with one
        # keyed frontier allgather per layer, every epoch — the same losses
        # and the same per-rank bytes, frontier included, on threads and
        # processes.
        dataset = _parity_dataset()
        config = TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0,
                                sampler=NeighborSamplingConfig(
                                    fanouts=(-1, -1), batch_size=len(dataset.train_indices()),
                                    shuffle=False))
        shards = create_shards(dataset.graph, PartitionBook(
            partition_graph(dataset.graph, 2, seed=0), 2))
        threads, processes = self._sage_both_backends(config, SARConfig(mode), shards)
        for losses, mp_losses in zip(threads.results, processes.results):
            np.testing.assert_allclose(mp_losses, losses, rtol=0, atol=1e-6)
        for stats, mp_stats in zip(threads.comm_stats, processes.comm_stats):
            assert mp_stats.received_by_tag == stats.received_by_tag
        assert threads.total_received_by_tag()["sample_frontier"] > 0

    def test_dropout_training_is_reproducible_on_threads(self):
        # Each worker draws its dropout masks from its own generator, keyed
        # by (config.seed, rank): a run is fixed by its config, not by how the
        # rank threads interleave or where the library-wide stream stands.
        dataset = _parity_dataset()
        config = TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0)
        shards = create_shards(dataset.graph, PartitionBook(
            partition_graph(dataset.graph, 2, seed=0), 2))
        kwargs = dict(config=config, sar_config=SARConfig("sar"), feature_dim=SAGE_IN,
                      num_classes=SAGE_CLASSES, dropout=0.5)
        first, second = (run_distributed(_sage_training_worker, 2, worker_args=shards, **kwargs)
                         for _ in range(2))
        assert second.results == first.results

    @pytest.mark.parametrize("mode", ["sar", "dp"])
    def test_dropout_training_matches_thread_backend(self, mode):
        # A forked rank draws from the same per-rank generator a thread rank
        # does, so dropout masks — and the losses — agree across backends.
        dataset = _parity_dataset()
        config = TrainingConfig(num_epochs=2, lr=0.05, eval_every=0, seed=0)
        shards = create_shards(dataset.graph, PartitionBook(
            partition_graph(dataset.graph, 2, seed=0), 2))
        threads, processes = self._sage_both_backends(config, SARConfig(mode), shards,
                                                      dropout=0.5)
        for losses, mp_losses in zip(threads.results, processes.results):
            np.testing.assert_allclose(mp_losses, losses, rtol=0, atol=1e-6)

    @staticmethod
    def _sage_both_backends(config, sar_config, shards, **extra):
        kwargs = dict(config=config, sar_config=sar_config,
                      feature_dim=SAGE_IN, num_classes=SAGE_CLASSES, **extra)
        threads = run_distributed(_sage_training_worker, len(shards),
                                  worker_args=shards, **kwargs)
        processes = run_multiprocess(_sage_training_worker, world_size=len(shards),
                                     worker_args=shards, timeout_s=120, **kwargs)
        return threads, processes

    def test_stream_keys_survive_clear_published(self):
        results = run_multiprocess(_stream_keys_survive_clear_worker, world_size=2,
                                   timeout_s=120).results
        assert results == [1.0, 0.0]

    def test_keyed_allgather_across_processes(self):
        results = run_multiprocess(_keyed_allgather_worker, world_size=3, timeout_s=120).results
        for rounds in results:
            assert rounds == [[step, 10 + step, 20 + step] for step in range(3)]

    def test_sampled_training_matches_single_machine(self):
        # The cooperative sampled training loop — keyed frontier allgathers,
        # pipelined batch b+1 sampling included — must run unchanged across
        # OS processes and train the same batch sequence as one machine.
        dataset = make_sbm_dataset(
            name="mp-sampled", num_nodes=120, num_classes=4, feature_dim=8,
            p_in=0.12, p_out=0.01, noise=1.5,
            train_frac=0.5, val_frac=0.2, test_frac=0.3, seed=5,
        )
        dataset.attach_to_graph()
        config = TrainingConfig(
            num_epochs=2, lr=0.05, eval_every=0, seed=0,
            sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32),
        )
        single = FullBatchTrainer(
            _sampled_model(dataset.feature_dim), dataset, config
        ).train()

        book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
        shards = create_shards(dataset.graph, book)
        results = run_multiprocess(
            _sampled_training_worker, world_size=2, worker_args=shards,
            timeout_s=180, config=config,
            feature_dim=dataset.feature_dim, num_classes=dataset.num_classes,
        ).results
        for losses in results:
            np.testing.assert_allclose(losses, single.losses(), rtol=1e-4, atol=1e-6)

    def test_sampled_training_fault_fails_the_run_promptly(self):
        # A rank failing mid-epoch abandons its loader's in-flight batch
        # (possibly parked in a frontier collective) instead of waiting on it.
        dataset = _parity_dataset()
        config = TrainingConfig(
            num_epochs=2, lr=0.05, eval_every=0, seed=0,
            sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=16),
        )
        book = PartitionBook(partition_graph(dataset.graph, 2, seed=0), 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"model boom \(loader in flight: True\)"):
            run_multiprocess(
                _sampled_training_worker, world_size=2,
                worker_args=create_shards(dataset.graph, book), timeout_s=60,
                config=config, feature_dim=dataset.feature_dim,
                num_classes=dataset.num_classes, model_factory=_boom_model,
            )
        assert time.monotonic() - start < 10
        _assert_no_children()

    def test_worker_error_is_reported_and_survivors_unblock(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="mp boom"):
            run_multiprocess(_failing_worker, world_size=2, timeout_s=120)
        # Rank 0 is parked in a barrier when rank 1 raises; the abort must
        # unblock it long before the 120 s timeout.
        assert time.monotonic() - start < 60
        _assert_no_children()

    def test_worker_crash_raises_naming_dead_rank(self):
        start = time.monotonic()
        with pytest.raises(WorkerFailedError,
                           match=r"rank 1: worker process died without posting"):
            run_multiprocess(_dying_worker, world_size=2, timeout_s=120)
        assert time.monotonic() - start < 60
        _assert_no_children()

    def test_peer_crash_unblocks_pending_fetch(self):
        with pytest.raises(WorkerFailedError, match="rank 1"):
            run_multiprocess(_dying_peer_fetch_worker, world_size=2, timeout_s=120)
        _assert_no_children()

    def test_job_timeout_raises_naming_the_silent_rank(self):
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match=_FAULTS["timeout"][1]):
            run_multiprocess(_sleeping_worker, world_size=2, timeout_s=2)
        assert time.monotonic() - start < 60
        _assert_no_children()

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_long_lived_cluster_fault_matrix(self, fault, monkeypatch):
        # The failure contract of run_multiprocess (the four tests above) is
        # the cluster's: the same faults on a cluster that stays up between
        # jobs, as serving uses it.
        worker, message = _FAULTS[fault]
        if fault == "publish_exceeds_arena":
            # the capacity rule is derived from the machine; shrinking it is
            # a test seam, not a setting
            monkeypatch.setattr(plane, "_arena_capacity", lambda world: _TINY_ARENA_BYTES)

        def factory(rank, comm):
            jobs = {"healthy": _collective_worker, "fault": worker}
            return lambda kind, payload: jobs[kind](rank, comm)

        timeout_s = 2 if fault == "timeout" else 120
        with MultiprocessServiceCluster(factory, 2, timeout_s=timeout_s) as cluster:
            assert len(cluster.request("healthy")) == 2
            assert len(mp.active_children()) == 2  # the workers and nothing else
            start = time.monotonic()
            with pytest.raises(WorkerFailedError, match=message):
                cluster.request("fault")
            # the survivor reported (unblocked by the abort) long before the
            # cluster timeout, or the parent would still be waiting for it
            assert time.monotonic() - start < 10
            # poisoned: later jobs fail at once instead of reaching dead workers
            with pytest.raises(WorkerFailedError, match="poisoned"):
                cluster.request("healthy")
        _assert_no_children()

    def test_start_stop_cycles_leak_nothing(self, monkeypatch):
        # The arenas are anonymous mappings: no name, no /dev/shm entry, no
        # descriptor.  Twenty clusters — healthy, crashed holding a lock,
        # out of arena — leave the parent exactly as they found it.
        monkeypatch.setattr(plane, "_arena_capacity", lambda world: _TINY_ARENA_BYTES)

        def shm_entries():
            return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []

        def cycle(fault):
            try:
                run_multiprocess(_FAULTS[fault][0] if fault else _collective_worker, 2,
                                 timeout_s=120)
            except WorkerFailedError:
                assert fault
            else:
                assert not fault
            _assert_no_children()

        faults = [None, "silent_death", "dies_holding_directory_lock", "publish_exceeds_arena"]
        for fault in faults:  # first uses settle lazy imports and allocator state
            cycle(fault)
        entries, descriptors = shm_entries(), len(os.listdir("/proc/self/fd"))
        for index in range(20):
            cycle(faults[index % len(faults)])
        assert shm_entries() == entries
        assert len(os.listdir("/proc/self/fd")) == descriptors

    def test_worker_args_length_validated(self):
        with pytest.raises(ValueError):
            run_multiprocess(_collective_worker, world_size=2, worker_args=[1])
