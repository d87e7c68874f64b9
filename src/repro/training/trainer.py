"""Trainers: single-machine reference and distributed (SAR / DP).

One epoch loop serves every way this repo trains.  A *batch* is ``(graph-like,
inputs, labels, loss mask)`` — one optimiser step — so full-batch training and
MFG training (``mfg_seeds``) are one-batch epochs and neighbour-sampled
training (``sampler``) is one batch per mini-batch.  :class:`FullBatchTrainer`
yields :class:`~repro.graph.graph.Graph` / :class:`~repro.graph.mfg.
MFGPipeline` / loader batches; a distributed worker yields its
:class:`~repro.core.dist_graph.DistributedGraph` handle with nothing, the
persistent MFG layers, or a freshly prepared sampled grid in force for that
batch's step (``DistributedGraph.restricted``).  Both run the same ``_fit`` (timer,
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
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SARConfig, SAR
from repro.core.dist_graph import DistributedGraph, RestrictionLayers
from repro.core.grad_sync import broadcast_parameters, sync_gradients
from repro.datasets.synthetic import NodeClassificationDataset
from repro.distributed.cluster import ClusterRunResult, run_distributed
from repro.distributed.comm import Communicator
from repro.graph.mfg import build_mfg_pipeline
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
from repro.sample.neighbor import NeighborSampler
from repro.store import FeatureStore, as_feature_store
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.optim import Adam, CosineDecay, SparseAdam
from repro.tensor.tensor import Tensor
from repro.training.correct_and_smooth import CorrectAndSmooth
from repro.training.label_augmentation import LabelAugmenter, NoLabelAugmenter
from repro.training.metrics import distributed_mean_loss, evaluation_report
from repro.utils.seed import temp_seed
from repro.utils.timing import Timer, WorkerTimer
from repro.utils.validation import check_1d_int_array

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
    Execution-path switches (:attr:`mfg_seeds`, :attr:`sampler`,
    :attr:`eval_inference`) change *how* numbers are computed, not the model
    or loss definitions; see each field's note for its exactness guarantee.
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
    #: Seed node ids for MFG-restricted training (paper Appendix B).  When
    #: set, each training epoch only computes the rows inside the seed set's
    #: receptive field — the loss is evaluated over these seeds — while
    #: evaluation still runs over the full graph.  ``None`` disables the
    #: restriction.  Note that batch normalization computes its statistics
    #: over whichever rows a layer produces, so restricted and full training
    #: only match exactly for models without batch norm.
    mfg_seeds: Optional[Sequence[int]] = None
    #: Mini-batch neighbour-sampled training
    #: (:class:`~repro.sample.loader.NeighborSamplingConfig`).  When set, each
    #: epoch shuffles the training seeds, samples per-layer neighbourhoods per
    #: batch, and takes one optimizer step per batch; evaluation still scores
    #: the full graph.  Mutually exclusive with :attr:`mfg_seeds`.  The
    #: sampler seed defaults to :attr:`seed`, so single-machine and
    #: distributed runs with the same config train the same batch sequence.
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
    #: (``eval_inference="layerwise"``); distributed workers ignore it.
    eval_batch_size: int = 1024
    #: Feature backend.  Single-machine: a :class:`~repro.store.FeatureStore`
    #: instance (or a plain matrix) replacing ``dataset.features`` — a
    #: read-only store is gathered per batch, a *trainable* store
    #: (:class:`~repro.store.SparseEmbeddingStore`) is gathered through
    #: autograd and updated by a sparse optimizer stepping alongside the
    #: model's (featureless-graph training).  Distributed: the string
    #: ``"kv"`` makes every worker wrap its shard's rows in a
    #: :class:`~repro.store.PartitionedKVStore` and attach it to the graph
    #: handle, so layer-0 halo fetches route through the hot-row cache.
    #: Mutually exclusive with :attr:`label_augmentation` (which rewrites the
    #: feature matrix every epoch) and :attr:`mfg_seeds`.
    feature_store: Optional[Any] = None
    #: Hot-row cache budget for the distributed ``"kv"`` store.
    feature_store_cache_bytes: Optional[int] = 1 << 22
    #: Learning rate for the trainable store's
    #: :class:`~repro.tensor.optim.SparseAdam` (``None`` = :attr:`lr`).
    feature_store_lr: Optional[float] = None

    def resolved_sampler_seed(self) -> int:
        """The seed the neighbour sampler actually draws under."""
        if self.sampler is not None and self.sampler.seed is not None:
            return int(self.sampler.seed)
        return int(self.seed)

    def build_scheduler(self, optimizer) -> Optional[CosineDecay]:
        if self.lr_schedule == "cosine":
            return CosineDecay(optimizer, total_epochs=self.num_epochs)
        return None

    def validate(self, model_num_layers: Optional[int], distributed: bool,
                 num_nodes: int) -> None:
        """Raise ``ValueError`` for any setting no trainer can run.

        Every cross-field rule lives here and both trainers call it before
        doing any work — nothing is partitioned, no cluster is spawned and no
        epoch runs under a config that would only fail later.
        ``model_num_layers`` is the model's ``num_layers`` (``None`` when it
        exposes none), ``distributed`` tells :class:`DistributedTrainer` (and
        its workers) from :class:`FullBatchTrainer`, and ``num_nodes`` is the
        (global) graph's node count, which bounds :attr:`mfg_seeds`.
        """
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {self.num_epochs}")
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
        if self.sampler is not None and self.mfg_seeds is not None:
            raise ValueError("sampler and mfg_seeds are mutually exclusive")
        if self.mfg_seeds is not None:
            seeds = check_1d_int_array(self.mfg_seeds, "mfg_seeds", max_value=num_nodes)
            if seeds.size == 0:
                raise ValueError("mfg_seeds must name at least one node")
        for name, value in (("sampler", self.sampler), ("mfg_seeds", self.mfg_seeds)):
            if value is not None and model_num_layers is None:
                raise ValueError(
                    f"{name} requires a model exposing num_layers (one fanout / "
                    "restricted block per conv layer)"
                )
        if self.sampler is not None:
            if len(self.sampler.fanouts) != model_num_layers:
                raise ValueError(
                    f"sampler.fanouts names {len(self.sampler.fanouts)} layers but the "
                    f"model has {model_num_layers} conv layers"
                )
            if self.sampler.num_workers < 0:
                raise ValueError(
                    f"sampler.num_workers must be >= 0, got {self.sampler.num_workers}"
                )
            if self.sampler.max_resident_batches < 1:
                raise ValueError(
                    "sampler.max_resident_batches must be >= 1, got "
                    f"{self.sampler.max_resident_batches}"
                )
        store = self.feature_store
        if store is None:
            return
        if distributed and not (isinstance(store, str) and store == "kv"):
            raise ValueError(
                "distributed training takes feature_store='kv' (each worker "
                f"wraps its shard's rows) or None, got {store!r}"
            )
        if not distributed and isinstance(store, str):
            raise ValueError(
                "string feature_store modes (e.g. 'kv') are distributed-"
                "only; single-machine training takes a FeatureStore "
                "instance (or a feature matrix)"
            )
        if self.label_augmentation:
            raise ValueError(
                "feature_store and label_augmentation are mutually exclusive "
                "(augmentation rewrites the feature matrix every epoch)"
            )
        if self.mfg_seeds is not None:
            raise ValueError("feature_store and mfg_seeds are not supported together")


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
    #: a trainable feature store's optimizer / scheduler (single machine only)
    sparse_optimizer = None
    sparse_scheduler: Optional[CosineDecay] = None

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
            if self.sparse_scheduler is not None:
                self.sparse_scheduler.step()
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
        if self.sparse_optimizer is not None:
            self.sparse_optimizer.zero_grad()
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
        if self.sparse_optimizer is not None:
            self.sparse_optimizer.step(grad_scale=1.0 / count)

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
            if isinstance(features, FeatureStore):
                # A trainable store's gather(None) is its current table; a
                # read-only store's is the backing matrix — either way the
                # store *is* the feature source at evaluation time too.
                features = features.gather(None)
            logits = self._eval_logits(features)
        report = evaluation_report(logits, self.labels, self.masks, self.comm)
        self.model.train()
        return report, logits


# --------------------------------------------------------------------------- #
# single-machine trainer
# --------------------------------------------------------------------------- #
class FullBatchTrainer(_EpochLoop):
    """Training of a model on a single (non-partitioned) graph.

    Full-batch by default; ``config.mfg_seeds`` / ``config.sampler`` switch
    the epoch's batches to a compacted MFG pipeline or sampled mini-batches.
    """

    def __init__(self, model: Module, dataset: NodeClassificationDataset,
                 config: Optional[TrainingConfig] = None,
                 graph: Optional[Any] = None):
        self.model = model
        self.dataset = dataset
        self.config = config = config or TrainingConfig()
        self.graph = graph = dataset.graph if graph is None else graph
        num_layers = getattr(model, "num_layers", None)
        config.validate(num_layers, distributed=False, num_nodes=graph.num_nodes)
        self._smoothing_graph = dataset.graph
        self.labels = dataset.labels
        self.masks = {"train": dataset.train_mask, "val": dataset.val_mask,
                      "test": dataset.test_mask}
        self.augmenter = _make_augmenter(config, dataset.num_classes)
        self.optimizer = Adam(model.parameters(), lr=config.lr,
                              weight_decay=config.weight_decay)
        self.scheduler = config.build_scheduler(self.optimizer)
        #: the feature source: the dataset's matrix, or the configured store
        #: replacing it outright (label augmentation is rejected alongside a
        #: store, so the augmenter passes it through untouched).
        self.features: Any = dataset.features
        self.feature_store: Optional[FeatureStore] = None
        if config.feature_store is not None:
            store = as_feature_store(config.feature_store)
            if store.num_rows != graph.num_nodes:
                raise ValueError(
                    f"feature_store has {store.num_rows} rows but the graph "
                    f"has {graph.num_nodes} nodes"
                )
            self.features = self.feature_store = store
            if store.trainable:
                lr = config.feature_store_lr if config.feature_store_lr is not None \
                    else config.lr
                self.sparse_optimizer = SparseAdam(store, lr=lr)
                self.sparse_scheduler = config.build_scheduler(self.sparse_optimizer)
        self._rng = np.random.default_rng(config.seed)
        self._inference_engine: Optional[LayerWiseInference] = None
        self.sample_loader: Optional[MiniBatchDataLoader] = None
        if config.sampler is not None:
            scfg = config.sampler
            sampler = NeighborSampler(graph, scfg.fanouts, replace=scfg.replace,
                                      seed=config.resolved_sampler_seed())
            self.sample_loader = scfg.loader(sampler, dataset.train_indices())
        self.mfg_pipeline = None
        if config.mfg_seeds is not None:
            self.mfg_pipeline = build_mfg_pipeline(graph, config.mfg_seeds, num_layers)

    # ------------------------------------------------------------------ #
    def train(self) -> TrainingResult:
        return self._fit()[0]

    def _batches(self, epoch: int, features, predict_mask: np.ndarray) -> Iterator[Batch]:
        labels, store = self.labels, self.feature_store
        if self.sample_loader is not None:
            # Hand the epoch's features (matrix or store) to the loader so its
            # prefetch jobs pre-gather each batch's input rows off the
            # training thread.  Trainable stores are exempt from prefetch (the
            # loader skips them): their gather must record autograd state on
            # the training thread, right here.
            self.sample_loader.set_features(features)
            for batch in self.sample_loader.iter_epoch(epoch):
                if store is not None and store.trainable:
                    x = store.gather_tensor(batch.pipeline.input_nodes)
                else:
                    x = Tensor(batch.input_features(features))
                yield batch.pipeline, x, labels[batch.seeds], predict_mask[batch.seeds]
        elif self.mfg_pipeline is not None:
            # Restricted epoch: only the receptive field of the seed set is
            # computed; the logits rows are exactly the (sorted) seeds.
            pipeline = self.mfg_pipeline
            rows = pipeline.output_nodes
            yield (pipeline, Tensor(pipeline.gather_inputs(features)),
                   labels[rows], predict_mask[rows])
        else:
            # A trainable store is gathered through autograd (backward scatters
            # per-row gradients into it); anything else yields a leaf tensor.
            x = Tensor(features) if store is None else store.gather_tensor(None)
            yield self.graph, x, labels, predict_mask

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
        num_layers = getattr(model, "num_layers", None)
        config.validate(num_layers, distributed=True, num_nodes=shard.num_total_nodes)
        self.graph = DistributedGraph(shard, comm, sar_config)
        self._smoothing_graph = self.graph
        #: the persistent MFG restriction — prepared once (its halo routing is
        #: collective), entered for every training step — and the local seed
        #: rows the loss mask is clipped to (only they carry trustworthy logits).
        self.mfg_layers: Optional[RestrictionLayers] = None
        self.seed_mask: Optional[np.ndarray] = None
        if config.mfg_seeds is not None:
            # The MFG is the full-neighbourhood sample of the seed set.
            seeds = np.unique(np.asarray(config.mfg_seeds, dtype=np.int64))
            mfg = DistributedNeighborSampler(shard, comm, [-1] * num_layers)
            self.mfg_layers = self.graph.prepare_restriction(mfg.sample(seeds), name="mfg")
            # prepare_restriction's routing exchanges are barriers: every rank
            # has consumed the last frontier payload.
            mfg.release()
            self.seed_mask = np.isin(shard.global_node_ids, seeds)
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
        self.kv_store = None
        if config.feature_store is not None:
            # Every worker constructs (and publishes) its store here — same
            # program point on every rank, the collective setup discipline the
            # store requires.  Attaching it routes layer-0 halo fetches through
            # the hot-row cache (the published payload is the shard's feature
            # matrix, which the store covers()).
            self.kv_store = shard.feature_store(
                comm, cache_bytes=config.feature_store_cache_bytes
            )
            self.graph.attach_feature_store(self.kv_store)
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
            if self.mfg_layers is None:
                yield graph, inputs, labels, predict_mask
            else:
                with graph.restricted(self.mfg_layers):
                    yield graph, inputs, labels, predict_mask & self.seed_mask
            return
        # Every sampled batch is a collective: all workers derive the identical
        # global batch (same shuffle stream), sample their owned share of each
        # layer, prepare the sampled per-layer block grids (shrunken halo
        # exchanges) and take one gradient-synchronized optimizer step.  Batch
        # b+1's sampling — its keyed, barrier-free ``sample_frontier``
        # allgathers included — runs on the loader's prefetch thread while
        # batch b computes, so its wire time hides behind the forward/backward
        # pass (the cost model accounts it under ``SAMPLING_OVERLAP_TAGS``).
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

    With ``config.mfg_seeds`` set, the workers sample the seed set's
    full-neighbourhood MFG grids cooperatively once, at setup, and every
    training forward runs inside that prepared per-layer restriction (smaller
    halo fetches).

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
    training, logits = worker._fit()
    result: Dict[str, Any] = {
        "records": training.records,
        "final_accuracies": training.final_accuracies,
        "cs_accuracies": training.cs_accuracies,
        "local_logits": logits,
        "global_node_ids": worker.graph.global_node_ids,
    }
    # The evaluation collectives above are barriers: every peer has finished
    # sampling and fetching, so the last frontier payload and the published
    # store rows are provably consumed everywhere.
    if worker.loader is not None:
        worker.loader.sampler.release()
    if worker.kv_store is not None:
        result["feature_store_stats"] = worker.kv_store.stats()
        worker.graph.attach_feature_store(None)
        worker.kv_store.release()
    return result


class DistributedTrainer:
    """Partition a dataset and train a model with SAR/DP, one worker thread per part.

    :meth:`run` runs :func:`distributed_train_worker` as one job on a
    ``ThreadServiceCluster`` (``run_distributed``); ``run_multiprocess`` runs
    the same worker function on forked processes.
    """

    def __init__(self, dataset: NodeClassificationDataset, model_factory: ModelFactory,
                 num_workers: int, sar_config: SARConfig = SAR,
                 config: Optional[TrainingConfig] = None,
                 partition_method: str = "metis", partition_seed: int = 0,
                 timeout_s: float = 600.0):
        self.dataset = dataset
        self.model_factory = model_factory
        self.num_workers = num_workers
        self.sar_config = sar_config
        self.config = config = config or TrainingConfig()
        self.partition_method = partition_method
        self.partition_seed = partition_seed
        self.timeout_s = timeout_s
        #: conv-layer count of the model, probed only when a per-layer
        #: structure (MFG restriction, sampling fan-outs) has to match it.
        self._num_layers: Optional[int] = None
        if config.mfg_seeds is not None or config.sampler is not None:
            self._num_layers = self._probe_num_layers()
        config.validate(self._num_layers, distributed=True,
                        num_nodes=dataset.graph.num_nodes)
        dataset.attach_to_graph()
        self.book, self.shards = self._prepare_shards()

    # ------------------------------------------------------------------ #
    def _prepare_shards(self):
        dataset = self.dataset
        assignment = partition_graph(dataset.graph, self.num_workers,
                                     method=self.partition_method, seed=self.partition_seed)
        book = PartitionBook(assignment, self.num_workers)
        return book, create_shards(dataset.graph, book)

    def _probe_num_layers(self) -> Optional[int]:
        """Read ``num_layers`` off a throwaway model replica.

        The probe exists only to read the attribute; its parameter draws are
        isolated so enabling MFG or sampling does not shift the workers'
        initial weights.
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
