"""Trainers: single-machine reference and distributed (SAR / DP).

One epoch loop serves every way this repo trains.  A *batch* is ``(graph-like,
inputs, labels, loss mask)`` — one optimiser step — so full-batch training is
a one-batch epoch, neighbour-sampled training (``sampler``) is one batch per
mini-batch, and paper Appendix B's restricted epoch is one unshuffled batch
of every train seed at fan-out ``-1``.  :class:`FullBatchTrainer` yields the
:class:`~repro.graph.graph.Graph` or loader batches; a distributed worker
yields its :class:`~repro.core.dist_graph.DistributedGraph` handle, with a
sampled batch's freshly prepared grids in force for that batch's step
(``DistributedGraph.restricted``).  Both run the same ``_fit`` (timer,
schedulers, records, periodic and final evaluation, Correct & Smooth),
``_run_epoch``, ``_step`` and ``evaluate``; ``comm is None`` means single
machine, otherwise the batch count is all-reduced and gradients are
synchronized with one allreduce (paper Section 4.2).

Around that loop the distributed recipe is the paper's: the graph is
partitioned with the METIS-substitute partitioner, every worker receives its
shard and a full model replica, and optional label augmentation and Correct &
Smooth reproduce the Table-1 setup.  The single-machine trainer is both the
correctness reference (distributed training must produce the same numbers) and
the baseline of the single-host benchmarks.
"""

from __future__ import annotations

import dataclasses
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import SARConfig, SAR
from repro.core.dist_graph import DistributedGraph
from repro.core.grad_sync import broadcast_parameters, sync_gradients
from repro.datasets.synthetic import NodeClassificationDataset
from repro.distributed.cluster import ClusterRunResult, run_distributed
from repro.distributed.comm import Communicator
from repro.nn.module import Module
from repro.partition.book import PartitionBook
from repro.partition.partitioner import partition_graph
from repro.partition.shard import create_shards
from repro.sample.distributed import DistributedNeighborSampler
from repro.sample.inference import (
    LayerWiseInference,
    distributed_layerwise_logits,
)
from repro.sample.loader import MiniBatchDataLoader, NeighborSamplingConfig
from repro.sample.neighbor import NeighborSampler, check_fanout
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.optim import Adam, CosineDecay
from repro.tensor.tensor import Tensor
from repro.training.correct_and_smooth import CorrectAndSmooth
from repro.training.label_augmentation import LabelAugmenter, NoLabelAugmenter
from repro.training.metrics import distributed_mean_loss, evaluation_report
from repro.utils.seed import derive_rng, temp_seed, thread_rng
from repro.utils.timing import Timer, WorkerTimer

ModelFactory = Callable[[int], Module]
#: one optimiser step, ``(graph-like, inputs, labels, loss mask)``: the model runs over
#: a graph / MFG pipeline / distributed handle; labels and mask cover its output rows.
Batch = Tuple[Any, Tensor, np.ndarray, np.ndarray]


# --------------------------------------------------------------------------- #
# configuration / results
# --------------------------------------------------------------------------- #
@dataclass
class TrainingConfig:
    """Hyperparameters shared by the single-machine and distributed trainers.

    A config fully determines a run: with the same config (and dataset /
    model factory), a single-machine run and an ``N``-worker distributed run
    execute the same epoch structure, and — when :attr:`sampler` is set — the
    identical mini-batch sequence (the sampler's counter-based determinism).
    Execution-path switches (:attr:`sampler`, :attr:`eval_inference`) change
    *how* numbers are computed, not the model or loss definitions; see each
    field's note for its exactness guarantee.
    """

    num_epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 0.0
    lr_schedule: str = "cosine"  # "cosine" | "none"
    label_augmentation: bool = False
    correct_and_smooth: bool = False
    cs_params: CorrectAndSmooth = field(default_factory=CorrectAndSmooth)
    eval_every: int = 0  # 0 = evaluate only after the final epoch
    seed: int = 0
    #: Mini-batch neighbour-sampled training
    #: (:class:`~repro.sample.loader.NeighborSamplingConfig`).  When set, each
    #: epoch shuffles the training seeds, samples per-layer neighbourhoods per
    #: batch, and takes one optimizer step per batch; evaluation still scores
    #: the full graph.  The sampler seed defaults to :attr:`seed`, so
    #: single-machine and distributed runs with the same config train the
    #: same batch sequence.  Paper Appendix B's MFG-restricted training is
    #: ``fanouts=(-1,) * L, batch_size=<train count>, shuffle=False``.
    sampler: Optional[NeighborSamplingConfig] = None
    #: How single-machine evaluation computes its logits: ``"full"`` runs one
    #: full-graph forward pass; ``"layerwise"`` runs the layer-wise
    #: full-neighbourhood inference engine (:mod:`repro.sample.inference`) —
    #: bit-identical logits, with peak memory bounded by two full-width layer
    #: matrices plus one batch instead of the whole multi-layer forward.
    #: Distributed workers ignore it: their evaluation is one no-grad SAR
    #: forward, which already holds one remote halo block at a time.
    eval_inference: str = "full"
    #: Destination nodes per single-machine layer-wise inference batch
    #: (``eval_inference="layerwise"``, at least 1); distributed workers
    #: ignore it.
    eval_batch_size: int = 1024

    def resolved_sampler_seed(self) -> int:
        """The seed the neighbour sampler actually draws under."""
        if self.sampler is not None and self.sampler.seed is not None:
            return int(self.sampler.seed)
        return int(self.seed)

    def build_scheduler(self, optimizer) -> Optional[CosineDecay]:
        if self.lr_schedule == "cosine":
            return CosineDecay(optimizer, total_epochs=self.num_epochs)
        return None

    def validate(self, model_num_layers: Optional[int]) -> None:
        """Raise ``ValueError`` for any setting no trainer can run.

        Every cross-field rule lives here and both trainers call it before
        doing any work — nothing is partitioned, no cluster is spawned and no
        epoch runs under a config that would only fail later.
        ``model_num_layers`` is the model's ``num_layers`` (``None`` when it
        exposes none).
        """
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {self.num_epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.eval_every < 0:
            raise ValueError(
                f"eval_every must be >= 0 (0 = only after the final epoch), got {self.eval_every}"
            )
        if self.lr_schedule not in ("cosine", "none"):
            raise ValueError(f"Unknown lr_schedule {self.lr_schedule!r}")
        if self.eval_inference not in ("full", "layerwise"):
            raise ValueError(
                f"eval_inference must be 'full' or 'layerwise', got {self.eval_inference!r}"
            )
        if self.eval_batch_size < 1:
            raise ValueError(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if self.sampler is not None:
            if model_num_layers is None:
                raise ValueError("sampler needs a model exposing num_layers (one fanout per layer)")
            if len(self.sampler.fanouts) != model_num_layers:
                raise ValueError(
                    f"sampler.fanouts names {len(self.sampler.fanouts)} layers but the "
                    f"model has {model_num_layers} conv layers"
                )
            for layer, spec in enumerate(self.sampler.fanouts):
                for name, fanout in (spec.items() if isinstance(spec, Mapping)
                                     else [(None, spec)]):
                    check_fanout(fanout, f"sampler.fanouts[{layer}]"
                                 + ("" if name is None else f"[{name!r}]"))
            for name, low in (("batch_size", 1), ("num_workers", 0),
                              ("max_resident_batches", 1)):
                value = getattr(self.sampler, name)
                if value < low:
                    raise ValueError(f"sampler.{name} must be >= {low}, got {value}")


@dataclass
class EpochRecord:
    """Per-epoch measurements (identical on every worker in distributed runs)."""

    epoch: int
    loss: float
    lr: float
    train_time_s: float
    train_accuracy: float = float("nan")
    val_accuracy: float = float("nan")
    test_accuracy: float = float("nan")


@dataclass
class TrainingResult:
    """Training curve plus final / best accuracies."""

    records: List[EpochRecord]
    final_accuracies: Dict[str, float]
    cs_accuracies: Optional[Dict[str, float]] = None

    @property
    def final_test_accuracy(self) -> float:
        return self.final_accuracies.get("test", float("nan"))

    @property
    def final_val_accuracy(self) -> float:
        return self.final_accuracies.get("val", float("nan"))

    @property
    def num_epochs(self) -> int:
        return len(self.records)

    @property
    def mean_epoch_time_s(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.train_time_s for r in self.records]))

    def accuracy_curve(self) -> List[tuple[int, float]]:
        """(epoch, test accuracy) pairs for epochs where evaluation ran."""
        return [(r.epoch, r.test_accuracy) for r in self.records
                if not np.isnan(r.test_accuracy)]

    def losses(self) -> List[float]:
        return [r.loss for r in self.records]


@dataclass
class DistributedTrainingResult:
    """Result of a distributed run: the training curve plus cluster measurements."""

    training: TrainingResult
    cluster: ClusterRunResult
    world_size: int
    sar_config: SARConfig


# --------------------------------------------------------------------------- #
# the shared loop: one epoch, one optimiser step, one evaluation
# --------------------------------------------------------------------------- #
def _make_augmenter(config: TrainingConfig, num_classes: int):
    if config.label_augmentation:
        return LabelAugmenter(num_classes)
    return NoLabelAugmenter(num_classes)


def _local_loss(logits: Tensor, labels: np.ndarray, predict_mask: np.ndarray) -> Tensor:
    """Summed cross-entropy over the masked rows.

    When a worker's partition contains no loss nodes this epoch, a zero loss
    that still depends on the logits is returned so the backward pass (and
    therefore the collective gradient exchange) runs on every worker.
    """
    if predict_mask.any():
        return F.cross_entropy(logits[predict_mask], labels[predict_mask], reduction="sum")
    return logits.sum() * 0.0


class _EpochLoop:
    """The epoch, step and evaluation both trainers run.

    A subclass is a substrate: it sets ``model``, ``config``, ``graph``,
    ``features`` / ``labels`` / ``masks`` (over that graph's rows),
    ``augmenter``, ``optimizer``, ``scheduler``, ``_rng`` and
    ``_smoothing_graph``, and implements the two hooks below.
    """

    comm: Optional[Communicator] = None  # None = single machine
    timer_cls = Timer

    def _batches(self, epoch: int, features, predict_mask: np.ndarray) -> Iterator[Batch]:
        """The epoch's batches over this epoch's (augmented) features.

        A scope a batch's forward needs (a distributed restriction) is held
        open around its ``yield``: it spans that batch's step and is gone when
        the next batch is asked for, so evaluation is never restricted.
        """
        raise NotImplementedError

    def _eval_logits(self, features: np.ndarray) -> np.ndarray:
        """Evaluation logits for every (local) row of the unrestricted graph.

        Called in eval mode under ``no_grad``; collective in distributed runs.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def _fit(self) -> Tuple[TrainingResult, np.ndarray]:
        """Train ``num_epochs``; returns the result and the final logits."""
        config = self.config
        records: List[EpochRecord] = []
        for epoch in range(1, config.num_epochs + 1):
            timer = self.timer_cls().start()
            self.model.train()
            features, predict_mask = self.augmenter.training_batch(
                self.features, self.labels, self.masks["train"], self._rng
            )
            # Closed even when a step raises, so a sampling thread working
            # ahead is let go at once rather than whenever the frame is freed.
            with closing(self._batches(epoch, features, predict_mask)) as batches:
                loss = self._run_epoch(batches)
            lr = self.scheduler.step() if self.scheduler else self.optimizer.lr
            record = EpochRecord(epoch=epoch, loss=loss, lr=lr, train_time_s=timer.stop())
            if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.num_epochs):
                accs, _ = self.evaluate()
                record.train_accuracy = accs["train"]
                record.val_accuracy = accs["val"]
                record.test_accuracy = accs["test"]
            records.append(record)

        final_accs, logits = self.evaluate()
        cs_accs = None
        if config.correct_and_smooth:
            refined = config.cs_params(self._smoothing_graph, logits, self.labels,
                                       self.masks["train"])
            cs_accs = evaluation_report(refined, self.labels, self.masks, self.comm)
        return TrainingResult(records, final_accs, cs_accs), logits

    def _run_epoch(self, batches: Iterable[Batch]) -> float:
        """One optimiser step per batch; returns the epoch's (global) mean loss."""
        loss_sum, count = 0.0, 0
        for graph, inputs, labels, mask in batches:
            loss = _local_loss(self.model(graph, inputs), labels, mask)
            # No backward reads a batch's input rows: let them go.
            del inputs
            batch_count = int(mask.sum())
            self._step(loss, batch_count)
            loss_sum += float(loss.data)
            count += batch_count
        if self.comm is None:
            return loss_sum / max(count, 1)
        return distributed_mean_loss(loss_sum, count, self.comm)

    def _step(self, loss: Tensor, count: int) -> None:
        """Backward, mean-loss gradient scaling, optimizer step(s).

        ``loss`` is summed over ``count`` local rows: single machine the
        gradients are divided by it; distributed, the one gradient allreduce
        applies ``1 / global count``.
        """
        self.model.zero_grad()
        loss.backward()
        if self.comm is None:
            count = max(count, 1)
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad /= count
        else:
            global_count = self.comm.allreduce_scalar(float(count))
            sync_gradients(self.model.parameters(), self.comm,
                           scale=1.0 / max(global_count, 1.0))
        self.optimizer.step()

    def evaluate(self) -> Tuple[Dict[str, float], np.ndarray]:
        """Accuracies on train/val/test plus the raw logits of every (local) row.

        On a single machine ``config.eval_inference`` picks the route:
        ``"full"`` is one full-graph forward pass; ``"layerwise"`` computes
        each layer for all nodes, ``config.eval_batch_size`` rows at a time,
        before the next (:mod:`repro.sample.inference`) — no full-graph
        forward is ever materialized, and the logits are bit-identical.  A
        distributed worker runs one no-grad SAR forward for either value
        (:func:`~repro.sample.inference.distributed_layerwise_logits`): it
        already holds one remote halo block at a time.  Evaluation always
        scores the unrestricted graph, and is collective in distributed runs.
        """
        self.model.eval()
        with no_grad():
            features = self.augmenter.inference_batch(
                self.features, self.labels, self.masks["train"]
            )
            logits = self._eval_logits(features)
        report = evaluation_report(logits, self.labels, self.masks, self.comm)
        self.model.train()
        return report, logits


# --------------------------------------------------------------------------- #
# single-machine trainer
# --------------------------------------------------------------------------- #
class FullBatchTrainer(_EpochLoop):
    """Training of a model on a single (non-partitioned) graph.

    Full-batch by default; ``config.sampler`` switches the epoch's batches to
    sampled mini-batches (compacted MFG pipelines).
    """

    def __init__(self, model: Module, dataset: NodeClassificationDataset,
                 config: Optional[TrainingConfig] = None,
                 graph: Optional[Any] = None):
        self.model = model
        self.dataset = dataset
        self.config = config = config or TrainingConfig()
        self.graph = graph = dataset.graph if graph is None else graph
        config.validate(getattr(model, "num_layers", None))
        self._smoothing_graph = dataset.graph
        self.labels = dataset.labels
        self.masks = {"train": dataset.train_mask, "val": dataset.val_mask,
                      "test": dataset.test_mask}
        self.augmenter = _make_augmenter(config, dataset.num_classes)
        self.optimizer = Adam(model.parameters(), lr=config.lr,
                              weight_decay=config.weight_decay)
        self.scheduler = config.build_scheduler(self.optimizer)
        self.features = dataset.features
        self._rng = np.random.default_rng(config.seed)
        self._inference_engine: Optional[LayerWiseInference] = None
        self.sample_loader: Optional[MiniBatchDataLoader] = None
        if config.sampler is not None:
            scfg = config.sampler
            sampler = NeighborSampler(graph, scfg.fanouts, replace=scfg.replace,
                                      seed=config.resolved_sampler_seed())
            self.sample_loader = scfg.loader(sampler, dataset.train_indices())

    # ------------------------------------------------------------------ #
    def train(self) -> TrainingResult:
        return self._fit()[0]

    def _batches(self, epoch: int, features, predict_mask: np.ndarray) -> Iterator[Batch]:
        # The inputs are built inside each ``yield`` and bound to no name
        # here, so once the loop drops them this frame holds them no longer.
        labels = self.labels
        if self.sample_loader is None:
            yield self.graph, Tensor(features), labels, predict_mask
            return

        # The loader's prefetch samples and compacts batch b + 1 while batch b
        # trains; each batch's layer-0 rows are gathered here, when it is
        # taken, so only the one batch's rows are ever alive.
        for batch in self.sample_loader.iter_epoch(epoch):
            yield (batch.pipeline, Tensor(batch.gather_inputs(features)),
                   labels[batch.seeds], predict_mask[batch.seeds])

    def _eval_logits(self, features: np.ndarray) -> np.ndarray:
        """One full-graph forward, or the cached layer-wise engine.

        The engine is rebuilt when the batch size changes.  Caching keeps its
        per-batch blocks — and the edge plan each block holds — alive across
        evaluation calls, so repeated evaluations build no block and never
        re-derive sparsity.
        """
        if self.config.eval_inference != "layerwise":
            return self.model(self.graph, Tensor(features)).data
        engine = self._inference_engine
        if engine is None or engine.batch_size != self.config.eval_batch_size:
            engine = LayerWiseInference(self.model, self.graph,
                                        batch_size=self.config.eval_batch_size)
            self._inference_engine = engine
        return engine.run(features)


# --------------------------------------------------------------------------- #
# distributed trainer
# --------------------------------------------------------------------------- #
class _DistributedWorker(_EpochLoop):
    """One SAR / DP worker's substrate for the shared loop (collective setup)."""

    timer_cls = WorkerTimer

    def __init__(self, rank: int, comm: Communicator, shard, model_factory: ModelFactory,
                 feature_dim: int, num_classes: int, config: TrainingConfig,
                 sar_config: SARConfig):
        self.comm, self.config = comm, config
        self.augmenter = _make_augmenter(config, num_classes)
        # Rank 0's initial weights are the ones every rank trains from (broadcast
        # below).  Thread workers draw them from one library-wide generator, so
        # rank 0 builds before any other rank draws — otherwise its weights
        # depend on how the worker threads interleave.
        if rank != 0:
            comm.barrier()
        self.model = model = model_factory(self.augmenter.augmented_dim(feature_dim))
        if rank == 0:
            comm.barrier()
        # DistributedTrainer validated against a probed replica; a direct
        # caller's config is checked here, against this one.  Every rank
        # raises at the same point, so none is left waiting in a setup exchange.
        config.validate(getattr(model, "num_layers", None))
        self.graph = DistributedGraph(shard, comm, sar_config)
        self._smoothing_graph = self.graph
        #: the sampled epochs' loader — the single machine's, over this
        #: worker's cooperative sampler and the global train ids.
        self.loader: Optional[MiniBatchDataLoader] = None
        if config.sampler is not None:
            scfg = config.sampler
            train_ids = comm.allgather(shard.global_node_ids[shard.node_data["train_mask"]],
                                       tag="setup")
            sampler = DistributedNeighborSampler(shard, comm, scfg.fanouts,
                                                 replace=scfg.replace,
                                                 seed=config.resolved_sampler_seed())
            # Releasing each frontier payload relies on a rank sampling its
            # batches in order, hence one sampling thread at most.
            scfg = dataclasses.replace(scfg, num_workers=min(scfg.num_workers, 1))
            self.loader = scfg.loader(sampler, np.sort(np.concatenate(train_ids)))
        if hasattr(model, "set_comm"):
            model.set_comm(comm)
        broadcast_parameters(model.parameters(), comm)
        self.optimizer = Adam(model.parameters(), lr=config.lr,
                              weight_decay=config.weight_decay)
        self.scheduler = config.build_scheduler(self.optimizer)
        self.features = shard.node_data["feat"]
        self.labels = shard.node_data["label"]
        self.masks = {
            "train": shard.node_data["train_mask"],
            "val": shard.node_data["val_mask"],
            "test": shard.node_data["test_mask"],
        }
        self._rng = np.random.default_rng(config.seed * 100_003 + rank)

    def _batches(self, epoch: int, features, predict_mask: np.ndarray) -> Iterator[Batch]:
        graph, inputs, labels = self.graph, Tensor(features), self.labels
        if self.loader is None:
            graph.begin_step()
            yield graph, inputs, labels, predict_mask
            return
        # Every sampled batch is a collective: all workers derive the identical
        # global batch (same shuffle stream), sample their owned share of each
        # layer, prepare the sampled per-layer block grids (shrunken halo
        # exchanges) and take one gradient-synchronized optimizer step.  Batch
        # b+1's sampling — its keyed, barrier-free ``sample_frontier``
        # allgathers included — runs on the loader's prefetch thread while
        # batch b computes, so its wire time hides behind the forward/backward
        # pass; its bytes are booked under the ``sample_frontier`` tag.
        # Preparing the restriction builds barrier-based halo exchanges, so it
        # stays on this thread.
        batch_mask = np.zeros(graph.num_total_nodes, dtype=bool)
        for batch in self.loader.iter_epoch(epoch):
            graph.begin_step()
            layers = graph.prepare_restriction(batch.pipeline, name="smp")
            batch_mask[:] = False
            batch_mask[batch.seeds] = True
            with graph.restricted(layers):
                yield graph, inputs, labels, predict_mask & batch_mask[graph.global_node_ids]

    def _eval_logits(self, features: np.ndarray) -> np.ndarray:
        """One no-grad SAR forward, whatever ``eval_inference`` says: it
        already holds one remote halo block at a time."""
        return distributed_layerwise_logits(self.graph, self.model, features)


def distributed_train_worker(rank: int, comm: Communicator, shard, *,
                             model_factory: ModelFactory, feature_dim: int,
                             num_classes: int, config: TrainingConfig,
                             sar_config: SARConfig) -> Dict[str, Any]:
    """Per-worker training loop (the job ``cluster.run_job`` runs on every rank).

    With ``config.sampler`` set, the workers gather the global train ids once
    and run cooperative neighbour-sampled mini-batch training through the
    single machine's :class:`~repro.sample.loader.MiniBatchDataLoader`, over a
    :class:`~repro.sample.distributed.DistributedNeighborSampler`: per batch,
    the workers sample their owned share of the per-layer neighbourhoods,
    prepare the sampled block grids, and step the optimizer once — the halo
    exchange each batch covers only sampled sources.  Evaluation runs outside
    any restriction scope, so every row's logits exist.
    """
    worker = _DistributedWorker(rank, comm, shard, model_factory, feature_dim, num_classes,
                                config, sar_config)
    # Dropout draws from this rank's own generator, installed after the model
    # is built: on the shared library-wide one, the rank threads' masks would
    # depend on how they interleave, and would differ from forked ranks'.
    with thread_rng(derive_rng(config.seed, rank)):
        training, logits = worker._fit()
    result: Dict[str, Any] = {
        "records": training.records,
        "final_accuracies": training.final_accuracies,
        "cs_accuracies": training.cs_accuracies,
        "local_logits": logits,
        "global_node_ids": worker.graph.global_node_ids,
    }
    # The evaluation collectives above are barriers: every peer has finished
    # sampling, so the last frontier payload is provably consumed everywhere.
    if worker.loader is not None:
        worker.loader.sampler.release()
    return result


class DistributedTrainer:
    """Partition a dataset and train a model with SAR/DP, one worker thread per part.

    :meth:`run` runs :func:`distributed_train_worker` as one job on a
    ``ThreadServiceCluster`` (``run_distributed``); ``run_multiprocess`` runs
    the same worker function on forked processes.
    """

    def __init__(self, dataset: NodeClassificationDataset, model_factory: ModelFactory,
                 num_workers: int, sar_config: SARConfig = SAR,
                 config: Optional[TrainingConfig] = None, partition_seed: int = 0,
                 timeout_s: float = 600.0):
        self.dataset = dataset
        self.model_factory = model_factory
        self.num_workers = num_workers
        self.sar_config = sar_config
        self.config = config = config or TrainingConfig()
        self.partition_seed = partition_seed
        self.timeout_s = timeout_s
        #: conv-layer count of the model, probed only when the sampling
        #: fan-outs have to match it.
        self._num_layers: Optional[int] = None
        if config.sampler is not None:
            self._num_layers = self._probe_num_layers()
        config.validate(self._num_layers)
        dataset.attach_to_graph()
        self.book, self.shards = self._prepare_shards()

    # ------------------------------------------------------------------ #
    def _prepare_shards(self):
        dataset = self.dataset
        assignment = partition_graph(dataset.graph, self.num_workers, seed=self.partition_seed)
        book = PartitionBook(assignment, self.num_workers)
        return book, create_shards(dataset.graph, book)

    def _probe_num_layers(self) -> Optional[int]:
        """Read ``num_layers`` off a throwaway model replica.

        The probe exists only to read the attribute; its parameter draws are
        isolated so enabling sampling does not shift the workers' initial
        weights.
        """
        with temp_seed(0):
            probe = self.model_factory(self.dataset.feature_dim)
        return getattr(probe, "num_layers", None)

    def run(self) -> DistributedTrainingResult:
        config, dataset = self.config, self.dataset
        result = run_distributed(
            distributed_train_worker, self.num_workers,
            worker_args=self.shards, timeout_s=self.timeout_s,
            model_factory=self.model_factory,
            feature_dim=dataset.feature_dim,
            num_classes=dataset.num_classes,
            config=config,
            sar_config=self.sar_config,
        )
        rank0 = result.results[0]
        training = TrainingResult(
            records=rank0["records"],
            final_accuracies=rank0["final_accuracies"],
            cs_accuracies=rank0["cs_accuracies"],
        )
        return DistributedTrainingResult(
            training=training,
            cluster=result,
            world_size=self.num_workers,
            sar_config=self.sar_config,
        )

    def assemble_global_predictions(self, result: DistributedTrainingResult) -> np.ndarray:
        """Stitch per-worker logits back into global node order."""
        per_partition = [r["local_logits"] for r in result.cluster.results]
        return self.book.scatter_to_global(per_partition)
