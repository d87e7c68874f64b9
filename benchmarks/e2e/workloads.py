"""The four closed-loop workloads, driven through the public entry points.

One client thread, one op at a time.  Each workload generates its inputs from
the ``--seed`` (model initialisation and sampler seed for the training
workloads, the request stream for the serving ones); the graphs themselves are
the library's fixed mini datasets, so byte and memory counts repeat exactly.

Set-up (:meth:`setup`) is what a user pays before the first useful op: dataset
generation, partitioning, model and trainer/server construction, start, and a
few warm-up ops that fill the plan cache.  The oracle every op is checked
against (:meth:`prepare_reference`) is *not* set-up and is never timed.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import List

import numpy as np

from repro.core import SARConfig
from repro.datasets import ogbn_papers_mini, ogbn_products_mini
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.sample.loader import NeighborSamplingConfig
from repro.serving import ServingConfig, create_server
from repro.tensor import Tensor, no_grad
from repro.tensor.memory import MemoryTracker, track_memory
from repro.training import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.seed import temp_seed

#: model initialisation draws from the library-wide generator, and the two
#: worker threads of ``DistributedTrainer`` call the factory concurrently —
#: left alone they race on it and the initial weights (hence the loss) differ
#: run to run.  The benchmark's factories serialise and seed themselves.
_INIT_LOCK = threading.Lock()


@contextmanager
def no_span(name: str, **args):
    """The span hook of untraced runs: records nothing."""
    yield None


class Workload:
    """Interface the runner drives; see the module docstring."""

    #: ``span(name, **args)`` context manager around each public call the
    #: workload makes; the traced run swaps in ``SpanRecorder.span``.
    span = staticmethod(no_span)

    name: str
    why: str
    #: ops per second on the reference machine; fixes the op count of a run
    ops_per_ref_second: float
    min_ops: int
    warmup_ops: int
    #: set by the serving workloads: requests outstanding per op
    burst = 0

    def __init__(self, seed: int, num_ops: int):
        self.seed = int(seed)
        self.num_ops = int(num_ops)

    @classmethod
    def ops_for(cls, seconds: float) -> int:
        return max(cls.min_ops, int(round(cls.ops_per_ref_second * seconds)))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def prepare_reference(self) -> None:
        raise NotImplementedError

    def run_op(self, index: int):
        raise NotImplementedError

    def verify(self, index: int, result) -> bool:
        raise NotImplementedError

    def after_op(self, index: int) -> None:
        """Untimed work between ops (the hot workload pushes a model here)."""

    def finish(self) -> int:
        """End-of-run invariants; returns how many ops they disqualify."""
        return 0


def _close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * max(1.0, abs(reference))


# --------------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------------- #
class TrainSarGatW2(Workload):
    name = "train_sar_gat_w2"
    why = ("the paper's core path: 2 SAR workers, case-2 GAT aggregation, so forward "
           "halo fetch, backward re-fetch and error exchange; sampler and serving idle")
    ops_per_ref_second = 1.7
    min_ops = 1
    warmup_ops = 2
    NUM_WORKERS = 2
    EPOCHS = 4

    def __init__(self, seed: int, num_ops: int):
        super().__init__(seed, num_ops)
        self.model_seed = 1000 + self.seed
        self.config = TrainingConfig(num_epochs=self.EPOCHS, eval_inference="layerwise",
                                     lr_schedule="none", seed=self.seed)
        self.sar_config = SARConfig("sar")

    def model_factory(self, in_features: int):
        with _INIT_LOCK, temp_seed(self.model_seed):
            return GATNet(in_features, 32, self.dataset.num_classes, num_layers=3,
                          num_heads=4, dropout=0.0)

    def setup(self) -> None:
        with self.span("datasets.generate"):
            self.dataset = ogbn_products_mini(scale=1.0)
        with self.span("training.trainer_build"):  # partition + shards + book
            self.trainer = DistributedTrainer(
                self.dataset, self.model_factory, num_workers=self.NUM_WORKERS,
                sar_config=self.sar_config, config=self.config,
            )
        with self.span("training.warmup"):
            for _ in range(self.warmup_ops):
                self.trainer.run()

    def prepare_reference(self) -> None:
        # SAR is exact: 2-worker training must reproduce plain single-machine
        # full-batch training of the same initial weights, to rounding.
        single = FullBatchTrainer(self.model_factory(self.dataset.feature_dim),
                                  self.dataset, self.config).train()
        self.reference_loss = single.records[-1].loss
        self.reference_accuracy = single.final_test_accuracy
        self.single_worker_epoch_ms = float(
            np.median([r.train_time_s for r in single.records]) * 1e3
        )
        self.last_result = None

    def run_op(self, index: int):
        self.last_result = self.trainer.run()
        return self.last_result

    def matches_reference(self, loss: float, test_accuracy: float) -> bool:
        return (
            _close(loss, self.reference_loss, 1e-4)
            and abs(test_accuracy - self.reference_accuracy) <= 0.01
            and self.reference_accuracy >= 0.5
        )

    def verify(self, index: int, result) -> bool:
        return self.matches_reference(result.training.records[-1].loss,
                                      result.training.final_test_accuracy)


class TrainSampledSageW1(Workload):
    name = "train_sampled_sage_w1"
    why = ("neighbour-sampled mini-batch steps plus layer-wise evaluation on one machine: "
           "sampler kernels, staged loader, MFG compaction, store gathers; SAR engine bypassed")
    ops_per_ref_second = 1.0
    min_ops = 1
    warmup_ops = 1
    #: final-epoch loss of ``--seed 0`` (the run is deterministic)
    SEED0_LOSS = 0.9434747025370598

    def __init__(self, seed: int, num_ops: int):
        super().__init__(seed, num_ops)
        self.model_seed = 2000 + self.seed
        self.config = TrainingConfig(
            num_epochs=1, eval_inference="layerwise", seed=self.seed,
            sampler=NeighborSamplingConfig(fanouts=(10, 10, 5), batch_size=256, num_workers=1),
        )
        self.peak_tensor_mb = 0.0

    def new_model(self):
        with temp_seed(self.model_seed):
            return GraphSageNet(self.dataset.feature_dim, 128, self.dataset.num_classes,
                                num_layers=3, dropout=0.0)

    def setup(self) -> None:
        with self.span("datasets.generate"):
            self.dataset = ogbn_papers_mini(scale=2.0)
        with self.span("training.warmup"):
            for _ in range(self.warmup_ops):
                self.warm_result = self.run_op(-1)

    def prepare_reference(self) -> None:
        self.reference_loss = self.warm_result.records[-1].loss

    def run_op(self, index: int):
        tracker = MemoryTracker(label=self.name)
        with track_memory(tracker):
            result = FullBatchTrainer(self.new_model(), self.dataset, self.config).train()
        self.peak_tensor_mb = max(self.peak_tensor_mb, tracker.peak_mb)
        return result

    def matches_reference(self, loss: float, test_accuracy: float) -> bool:
        return (
            _close(loss, self.reference_loss, 1e-9)
            and (self.seed != 0 or _close(loss, self.SEED0_LOSS, 1e-3))
            and test_accuracy >= 0.9
        )

    def verify(self, index: int, result) -> bool:
        return self.matches_reference(result.records[-1].loss, result.final_test_accuracy)


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
class _ServingWorkload(Workload):
    """Burst protocol shared by the serving workloads.

    One op is a burst: ``burst`` single-node ``predict_async`` calls, then a
    wait for all the futures.  ``max_batch_seeds`` equals the burst size, so
    the coalescing window closes by *size* the moment the last request is
    pulled: every batch is exactly one burst and no op waits on the window
    timer (timer waits do not scale with machine speed, so they would defeat
    the normalisation).  ``window_ms`` is only the guard against a client
    descheduled mid-burst, and ``finish`` counts any split burst as failed.
    """

    burst = 32
    NUM_NODES = 12_800
    WINDOW_MS = 1000.0
    RESULT_TIMEOUT_S = 30.0

    def __init__(self, seed: int, num_ops: int):
        super().__init__(seed, num_ops)
        self.model_seed = 3000 + self.seed
        rng = np.random.default_rng([self.seed, 0x5E12])
        self.warm_stream = self.draw(rng, self.warmup_ops)
        self.stream = self.draw(rng, self.num_ops)
        self.server = None

    def draw(self, rng: np.random.Generator, bursts: int) -> np.ndarray:
        raise NotImplementedError

    def prepare_graph(self) -> None:
        """What the backend needs of the graph before a server exists."""

    def create(self):
        raise NotImplementedError

    def setup(self) -> None:
        with self.span("datasets.generate"):
            self.dataset = ogbn_papers_mini(scale=2.0)
        if self.dataset.num_nodes != self.NUM_NODES:
            raise RuntimeError(f"papers_mini(2.0) has {self.dataset.num_nodes} nodes, "
                               f"the request streams assume {self.NUM_NODES}")
        with temp_seed(self.model_seed):
            self.model = GraphSageNet(self.dataset.feature_dim, 128, self.dataset.num_classes,
                                      num_layers=2, dropout=0.0)
        self.model.eval()
        self.prepare_graph()
        with self.span("serving.start"):
            self.server = self.create().start()
        with self.span("serving.warmup"):
            for ids in self.warm_stream:
                self.send(ids)

    def teardown(self) -> None:
        if self.server is not None:
            with self.span("serving.stop"):
                self.server.stop()
            self.server = None

    def prepare_reference(self) -> None:
        with no_grad():
            self.reference = self.model(self.dataset.graph, Tensor(self.dataset.features)).data
        self.batches_before = self.server.stats()["batches"]

    def send(self, ids: np.ndarray) -> List[np.ndarray]:
        with self.span("serving.enqueue"):
            futures = [self.server.predict_async(ids[i:i + 1]) for i in range(len(ids))]
        with self.span("serving.wait"):
            return [future.result(self.RESULT_TIMEOUT_S) for future in futures]

    def run_op(self, index: int):
        return self.send(self.stream[index])

    def verify(self, index: int, result) -> bool:
        return np.array_equal(np.concatenate(result), self.reference[self.stream[index]])

    def finish(self) -> int:
        batches = self.server.stats()["batches"] - self.batches_before
        return abs(batches - self.num_ops)


class ServeColdMp2(_ServingWorkload):
    name = "serve_cold_mp2"
    why = ("uniform-random requests over 2 forked shard processes with no embedding cache: every "
           "burst pays MFG build, gather, compute and cross-process bytes")
    ops_per_ref_second = 38.0
    min_ops = 20
    warmup_ops = 20

    def draw(self, rng, bursts):
        return rng.integers(0, self.NUM_NODES, size=(bursts, self.burst))

    def prepare_graph(self) -> None:
        graph = self.dataset.graph
        with self.span("partition.partition"):
            self.assignment = partition_graph(graph, 2, seed=0)
        with self.span("partition.shard"):
            self.book = PartitionBook(self.assignment, 2)
            self.shards = create_shards(graph, self.book)

    def create(self):
        config = ServingConfig(backend="mp", byte_budget=None, window_ms=self.WINDOW_MS,
                               max_batch_seeds=self.burst)
        return create_server(self.model, self.shards, self.dataset.features, config)


class ServeHotLocal(_ServingWorkload):
    name = "serve_hot_local"
    why = ("Zipf(1.1) requests on the single-process server with a 64 MiB embedding cache and a "
           "mid-run model push: queue/coalesce/scatter and cache reads dominate, mp bypassed")
    ops_per_ref_second = 170.0
    min_ops = 100
    warmup_ops = 100
    ZIPF_EXPONENT = 1.1

    def __init__(self, seed: int, num_ops: int):
        super().__init__(seed, num_ops)
        #: one pure version bump at the middle of the run invalidates the
        #: cache, so the bursts that follow pay the re-warm (the write path
        #: beside the reads); its share of the run is the same at any length
        self.update_after = self.num_ops // 2
        self.update_intervals: List[tuple] = []

    def draw(self, rng, bursts):
        weights = 1.0 / np.arange(1, self.NUM_NODES + 1) ** self.ZIPF_EXPONENT
        ranks = rng.choice(self.NUM_NODES, size=(bursts, self.burst), p=weights / weights.sum())
        # which node holds which popularity rank: one permutation per seed
        rank_to_node = np.random.default_rng([self.seed, 0x21BF]).permutation(self.NUM_NODES)
        return rank_to_node[ranks]

    def create(self):
        config = ServingConfig(backend="local", byte_budget=64 << 20, window_ms=self.WINDOW_MS,
                               max_batch_seeds=self.burst)
        return create_server(self.model, self.dataset.graph, self.dataset.features, config)

    def after_op(self, index: int) -> None:
        if index + 1 == self.update_after:
            start = time.perf_counter()
            with self.span("serving.update"):
                self.server.update(None)
            self.update_intervals.append((start, time.perf_counter()))


WORKLOADS = {w.name: w for w in (TrainSarGatW2, TrainSampledSageW1, ServeColdMp2, ServeHotLocal)}


def make(name: str, seed: int, seconds: float) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, cls.ops_for(seconds))
