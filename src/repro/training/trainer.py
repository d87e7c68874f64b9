"""Full-batch trainers: single-machine reference and distributed (SAR / DP).

The distributed trainer follows the recipe of the paper's Section 4.2:

* the graph is partitioned with the METIS-substitute partitioner and every
  worker receives its shard (features, labels, masks, edge blocks);
* each worker holds a full replica of the model, runs a full-batch forward /
  backward pass over its partition every epoch through a
  :class:`~repro.core.dist_graph.DistributedGraph` handle, and synchronizes
  parameter gradients with one allreduce at the end of the iteration;
* optional label augmentation (masked label prediction) and a final
  Correct & Smooth post-processing stage, both of which the paper uses for
  its Table-1 accuracies;
* training for ``num_epochs`` with a decaying learning rate.

The single-machine :class:`FullBatchTrainer` exists both as the correctness
reference (distributed training must produce the same numbers) and as the
baseline used in the single-host fused-attention benchmark.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SARConfig, SAR
from repro.core.dist_graph import DistributedGraph, DistributedHeteroGraph
from repro.core.grad_sync import broadcast_parameters, sync_gradients
from repro.datasets.synthetic import (
    HeteroNodeClassificationDataset,
    NodeClassificationDataset,
)
from repro.distributed.cluster import ClusterRunResult, SimulatedCluster
from repro.distributed.comm import Communicator
from repro.graph.hetero import HeteroGraph
from repro.graph.mfg import (
    build_hetero_mfg_pipeline,
    build_mfg_pipeline,
    message_flow_masks,
)
from repro.nn.module import Module
from repro.partition.book import PartitionBook
from repro.partition.partitioner import partition_graph
from repro.partition.shard import create_hetero_shards, create_shards
from repro.sample.distributed import (
    DistributedNeighborSampler,
    DistributedSamplingPlan,
    build_sampling_plan,
)
from repro.sample.inference import (
    LayerWiseInference,
    distributed_layerwise_logits,
)
from repro.sample.loader import (
    MiniBatchDataLoader,
    NeighborSamplingConfig,
    epoch_seed_order,
)
from repro.sample.neighbor import NeighborSampler
from repro.store import FeatureStore, as_feature_store
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.optim import (
    Adam,
    CosineDecay,
    LRScheduler,
    SparseAdam,
    SparseSGD,
    StepDecay,
)
from repro.tensor.tensor import Tensor
from repro.training.correct_and_smooth import CorrectAndSmooth
from repro.training.label_augmentation import LabelAugmenter, NoLabelAugmenter
from repro.training.metrics import (
    distributed_mean_loss,
    evaluation_report,
    masked_accuracy,
)
from repro.utils.logging import get_logger
from repro.utils.seed import temp_seed
from repro.utils.timing import Timer, WorkerTimer

logger = get_logger("training")

ModelFactory = Callable[[int], Module]


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
    lr_schedule: str = "cosine"  # "cosine" | "step" | "none"
    lr_step_size: int = 30
    lr_gamma: float = 0.5
    label_augmentation: bool = False
    label_augment_fraction: float = 0.5
    correct_and_smooth: bool = False
    cs_params: CorrectAndSmooth = field(default_factory=CorrectAndSmooth)
    eval_every: int = 0  # 0 = evaluate only after the final epoch
    seed: int = 0
    verbose: bool = False
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
    #: How evaluation computes its logits: ``"full"`` runs one full-graph
    #: forward pass; ``"layerwise"`` runs the layer-wise full-neighbourhood
    #: inference engine (:mod:`repro.sample.inference`) — bit-identical
    #: logits on a single machine, with peak memory bounded by two full-width
    #: layer matrices plus one batch instead of the whole multi-layer forward.
    eval_inference: str = "full"
    #: Destination nodes per layer-wise inference batch (``eval_inference=
    #: "layerwise"``); identical on every worker in distributed runs.
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
    #: Optimizer family for a *trainable* feature store: ``"adam"``
    #: (:class:`~repro.tensor.optim.SparseAdam`) or ``"sgd"``.
    feature_store_optimizer: str = "adam"
    #: Learning rate for the trainable store (``None`` = :attr:`lr`).
    feature_store_lr: Optional[float] = None

    def resolved_sampler_seed(self) -> int:
        """The seed the neighbour sampler actually draws under."""
        if self.sampler is not None and self.sampler.seed is not None:
            return int(self.sampler.seed)
        return int(self.seed)

    def build_scheduler(self, optimizer) -> Optional[LRScheduler]:
        if self.lr_schedule == "cosine":
            return CosineDecay(optimizer, total_epochs=self.num_epochs)
        if self.lr_schedule == "step":
            return StepDecay(optimizer, step_size=self.lr_step_size, gamma=self.lr_gamma)
        if self.lr_schedule == "none":
            return None
        raise ValueError(f"Unknown lr_schedule {self.lr_schedule!r}")


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
# shared epoch helpers
# --------------------------------------------------------------------------- #
def _make_augmenter(config: TrainingConfig, num_classes: int):
    if config.label_augmentation:
        return LabelAugmenter(num_classes, augment_fraction=config.label_augment_fraction)
    return NoLabelAugmenter(num_classes)


def _sampled_num_layers(config: TrainingConfig, model_num_layers: Optional[int]) -> int:
    """Validate the sampler config against the model's conv-layer count."""
    assert config.sampler is not None
    if config.mfg_seeds is not None:
        raise ValueError("sampler and mfg_seeds are mutually exclusive")
    if model_num_layers is None:
        raise ValueError(
            "sampler requires a model exposing num_layers (one fanout per conv layer)"
        )
    if len(config.sampler.fanouts) != model_num_layers:
        raise ValueError(
            f"sampler.fanouts names {len(config.sampler.fanouts)} layers but the "
            f"model has {model_num_layers} conv layers"
        )
    return model_num_layers


def _check_store_config(config: TrainingConfig) -> None:
    """The combinations a feature store cannot coexist with."""
    if config.label_augmentation:
        raise ValueError(
            "feature_store and label_augmentation are mutually exclusive "
            "(augmentation rewrites the feature matrix every epoch)"
        )
    if config.mfg_seeds is not None:
        raise ValueError("feature_store and mfg_seeds are not supported together")


def _build_sparse_optimizer(config: TrainingConfig, store):
    """The sparse optimizer a trainable feature store trains under."""
    lr = config.feature_store_lr if config.feature_store_lr is not None else config.lr
    if config.feature_store_optimizer == "adam":
        return SparseAdam(store, lr=lr)
    if config.feature_store_optimizer == "sgd":
        return SparseSGD(store, lr=lr, weight_decay=config.weight_decay)
    raise ValueError(
        f"feature_store_optimizer must be 'adam' or 'sgd', got "
        f"{config.feature_store_optimizer!r}"
    )


def _local_loss(logits: Tensor, labels: np.ndarray, predict_mask: np.ndarray) -> Tensor:
    """Summed cross-entropy over the masked rows.

    When a worker's partition contains no loss nodes this epoch, a zero loss
    that still depends on the logits is returned so the backward pass (and
    therefore the collective gradient exchange) runs on every worker.
    """
    predict_mask = np.asarray(predict_mask, dtype=bool)
    if predict_mask.any():
        return F.cross_entropy(logits[predict_mask], labels[predict_mask], reduction="sum")
    return logits.sum() * 0.0


# --------------------------------------------------------------------------- #
# single-machine trainer
# --------------------------------------------------------------------------- #
class FullBatchTrainer:
    """Full-batch training of a model on a single (non-partitioned) graph."""

    def __init__(self, model: Module, dataset: NodeClassificationDataset,
                 config: Optional[TrainingConfig] = None,
                 graph: Optional[Any] = None):
        self.model = model
        self.dataset = dataset
        self.config = config or TrainingConfig()
        if graph is not None:
            self.graph = graph
        elif isinstance(dataset, HeteroNodeClassificationDataset) and dataset.hetero_graph is not None:
            self.graph = dataset.hetero_graph
        else:
            self.graph = dataset.graph
        self.augmenter = _make_augmenter(self.config, dataset.num_classes)
        self.feature_store: Optional[FeatureStore] = None
        self.sparse_optimizer = None
        self.sparse_scheduler: Optional[LRScheduler] = None
        if self.config.feature_store is not None:
            if isinstance(self.config.feature_store, str):
                raise ValueError(
                    "string feature_store modes (e.g. 'kv') are distributed-"
                    "only; single-machine training takes a FeatureStore "
                    "instance (or a feature matrix)"
                )
            _check_store_config(self.config)
            if isinstance(self.graph, HeteroGraph):
                raise ValueError("feature_store supports homogeneous graphs only")
            store = as_feature_store(self.config.feature_store)
            if store.num_rows != self.graph.num_nodes:
                raise ValueError(
                    f"feature_store has {store.num_rows} rows but the graph "
                    f"has {self.graph.num_nodes} nodes"
                )
            self.feature_store = store
            if store.trainable:
                self.sparse_optimizer = _build_sparse_optimizer(self.config, store)
        self.optimizer = Adam(model.parameters(), lr=self.config.lr,
                              weight_decay=self.config.weight_decay)
        self.scheduler = self.config.build_scheduler(self.optimizer)
        if self.sparse_optimizer is not None:
            self.sparse_scheduler = self.config.build_scheduler(self.sparse_optimizer)
        self._rng = np.random.default_rng(self.config.seed)
        self._inference_engine: Optional[LayerWiseInference] = None
        self.sample_loader: Optional[MiniBatchDataLoader] = None
        if self.config.sampler is not None:
            scfg = self.config.sampler
            _sampled_num_layers(self.config, getattr(model, "num_layers", None))
            sampler = NeighborSampler(
                self.graph, scfg.fanouts, replace=scfg.replace,
                seed=self.config.resolved_sampler_seed(),
            )
            self.sample_loader = MiniBatchDataLoader(
                sampler, dataset.train_indices(), batch_size=scfg.batch_size,
                shuffle=scfg.shuffle, drop_last=scfg.drop_last,
                num_workers=scfg.num_workers,
                max_resident=scfg.max_resident_batches,
            )
        self.mfg_pipeline = None
        if self.config.mfg_seeds is not None:
            num_layers = getattr(model, "num_layers", None)
            if num_layers is None:
                raise ValueError(
                    "mfg_seeds requires a model exposing num_layers (one compacted "
                    "block is built per conv layer)"
                )
            if isinstance(self.graph, HeteroGraph):
                self.mfg_pipeline = build_hetero_mfg_pipeline(
                    self.graph, self.config.mfg_seeds, num_layers
                )
            else:
                self.mfg_pipeline = build_mfg_pipeline(
                    self.graph, self.config.mfg_seeds, num_layers
                )

    # ------------------------------------------------------------------ #
    def train(self) -> TrainingResult:
        config, dataset = self.config, self.dataset
        records: List[EpochRecord] = []
        for epoch in range(1, config.num_epochs + 1):
            timer = Timer().start()
            self.model.train()
            if self.feature_store is not None:
                # The store replaces the dataset features outright (label
                # augmentation is rejected at construction, so the loss mask
                # is simply the training mask).
                features: Any = self.feature_store
                predict_mask = np.asarray(dataset.train_mask, dtype=bool)
            else:
                features, predict_mask = self.augmenter.training_batch(
                    dataset.features, dataset.labels, dataset.train_mask, self._rng
                )
            if self.sample_loader is not None:
                mean_loss = self._sampled_epoch(features, predict_mask, epoch)
            else:
                if self.mfg_pipeline is not None:
                    # Restricted epoch: only the receptive field of the seed set
                    # is computed; the logits rows are exactly the (sorted) seeds.
                    out_nodes = self.mfg_pipeline.output_nodes
                    logits = self.model(self.mfg_pipeline,
                                        Tensor(self.mfg_pipeline.gather_inputs(features)))
                    labels = dataset.labels[out_nodes]
                    predict_mask = np.asarray(predict_mask)[out_nodes]
                else:
                    logits = self.model(self.graph, self._full_inputs(features))
                    labels = dataset.labels
                loss = _local_loss(logits, labels, predict_mask)
                count = max(int(np.asarray(predict_mask).sum()), 1)
                self._optimize_step(loss, count)
                mean_loss = float(loss.data) / count
            lr = self.scheduler.step() if self.scheduler else self.optimizer.lr
            if self.sparse_scheduler is not None:
                self.sparse_scheduler.step()
            elapsed = timer.stop()

            record = EpochRecord(epoch=epoch, loss=mean_loss, lr=lr,
                                 train_time_s=elapsed)
            if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.num_epochs):
                accs, _ = self.evaluate()
                record.train_accuracy = accs["train"]
                record.val_accuracy = accs["val"]
                record.test_accuracy = accs["test"]
                if config.verbose:
                    logger.info("epoch %d loss %.4f val %.4f test %.4f",
                                epoch, record.loss, record.val_accuracy, record.test_accuracy)
            records.append(record)

        final_accs, logits = self.evaluate()
        cs_accs = None
        if config.correct_and_smooth:
            refined = config.cs_params(dataset.graph, logits, dataset.labels, dataset.train_mask)
            cs_accs = {
                name: masked_accuracy(refined, dataset.labels, mask)
                for name, mask in (("train", dataset.train_mask), ("val", dataset.val_mask),
                                   ("test", dataset.test_mask))
            }
        return TrainingResult(records=records, final_accuracies=final_accs,
                              cs_accuracies=cs_accs)

    # ------------------------------------------------------------------ #
    def _full_inputs(self, features) -> Tensor:
        """Layer-0 inputs for a full-graph forward pass.

        A trainable store is gathered through autograd (so backward scatters
        per-row gradients into it); everything else yields a plain Tensor.
        """
        store = self.feature_store
        if store is None:
            return Tensor(features)
        if store.trainable:
            return store.gather_tensor(None)
        return Tensor(store.gather(None))

    def _optimize_step(self, loss: Tensor, count: int) -> None:
        """Backward + mean-scaled gradients + one optimizer step."""
        self.model.zero_grad()
        if self.sparse_optimizer is not None:
            self.sparse_optimizer.zero_grad()
        loss.backward()
        for param in self.model.parameters():
            if param.grad is not None:
                param.grad /= count
        self.optimizer.step()
        if self.sparse_optimizer is not None:
            # The same mean-loss scaling the dense parameters got above.
            self.sparse_optimizer.step(grad_scale=1.0 / count)

    def _sampled_epoch(self, features, predict_mask: np.ndarray,
                       epoch: int) -> float:
        """One neighbour-sampled epoch: a step per mini-batch; returns mean loss."""
        dataset = self.dataset
        predict_mask = np.asarray(predict_mask, dtype=bool)
        total_loss = 0.0
        total_count = 0
        store = self.feature_store
        trainable = store is not None and store.trainable
        # Hand the epoch's features (matrix or store) to the loader so its
        # feature-fetch stage pre-gathers each batch's input rows off the
        # training thread.  Trainable stores are exempt from prefetch (the
        # loader skips them): their gather must record autograd state on the
        # training thread, right here.
        self.sample_loader.set_features(features)
        for batch in self.sample_loader.iter_epoch(epoch):
            if trainable:
                x = store.gather_tensor(batch.pipeline.input_nodes)
            else:
                x = Tensor(batch.input_features(features))
            logits = self.model(batch.pipeline, x)
            mask = predict_mask[batch.seeds]
            loss = _local_loss(logits, dataset.labels[batch.seeds], mask)
            count = int(mask.sum())
            self._optimize_step(loss, max(count, 1))
            total_loss += float(loss.data)
            total_count += count
        return total_loss / max(total_count, 1)

    # ------------------------------------------------------------------ #
    def _layerwise_engine(self, batch_size: int) -> LayerWiseInference:
        """The cached layer-wise inference engine (rebuilt when sizes change).

        Caching keeps the sampler, loader, and — through the structural plan
        cache — the per-batch edge plans alive across evaluation calls, so
        repeated evaluations never re-derive sparsity.
        """
        engine = self._inference_engine
        if engine is None or engine.batch_size != batch_size:
            engine = LayerWiseInference(self.model, self.graph, batch_size=batch_size)
            self._inference_engine = engine
        return engine

    def evaluate(self, inference: Optional[str] = None,
                 batch_size: Optional[int] = None) -> tuple[Dict[str, float], np.ndarray]:
        """Accuracies on train/val/test plus the raw ``(num_nodes, C)`` logits.

        Parameters
        ----------
        inference:
            ``"full"`` (one full-graph forward pass) or ``"layerwise"`` (the
            layer-wise full-neighbourhood engine of
            :mod:`repro.sample.inference`: layer ``l`` is computed for all
            nodes batch-by-batch before layer ``l + 1``, so no full-graph
            forward is ever materialized).  Both produce bit-identical
            logits; ``None`` falls back to
            :attr:`TrainingConfig.eval_inference`.
        batch_size:
            Layer-wise batch size override (default
            :attr:`TrainingConfig.eval_batch_size`).
        """
        mode = inference if inference is not None else self.config.eval_inference
        if mode not in ("full", "layerwise"):
            raise ValueError(f"inference must be 'full' or 'layerwise', got {mode!r}")
        dataset = self.dataset
        self.model.eval()
        with no_grad():
            if self.feature_store is not None:
                # A trainable store's gather(None) is its current table; a
                # read-only store's is the backing matrix — either way the
                # store *is* the feature source at evaluation time too.
                features = self.feature_store.gather(None)
            else:
                features = self.augmenter.inference_batch(
                    dataset.features, dataset.labels, dataset.train_mask
                )
            if mode == "layerwise":
                engine = self._layerwise_engine(
                    batch_size if batch_size is not None else self.config.eval_batch_size
                )
                logits = engine.run(features)
            else:
                logits = self.model(self.graph, Tensor(features)).data
        masks = {"train": dataset.train_mask, "val": dataset.val_mask,
                 "test": dataset.test_mask}
        report = evaluation_report(logits, dataset.labels, masks)
        self.model.train()
        return report, logits


# --------------------------------------------------------------------------- #
# distributed trainer
# --------------------------------------------------------------------------- #
def _build_distributed_graph(shard, comm: Communicator, sar_config: SARConfig):
    if hasattr(shard, "relation_blocks"):
        return DistributedHeteroGraph(shard, comm, sar_config)
    return DistributedGraph(shard, comm, sar_config)


def _distributed_evaluate(dist_graph, model: Module, augmenter, features: np.ndarray,
                          labels: np.ndarray, masks: Dict[str, np.ndarray],
                          comm: Communicator, inference: str = "full",
                          eval_batch_size: int = 1024
                          ) -> tuple[Dict[str, float], np.ndarray]:
    """Evaluate every local row (collective call).

    ``inference="full"`` runs one unrestricted full-graph forward pass;
    ``"layerwise"`` computes each layer for all nodes batch-by-batch with
    per-batch halo fetches (:func:`repro.sample.inference.
    distributed_layerwise_logits`), so no worker ever materializes a
    full-graph forward.  Either way any installed MFG/sampling restriction is
    suspended for the duration.  Heterogeneous handles always run the full
    pass (the restriction machinery is homogeneous-only).
    """
    if inference not in ("full", "layerwise"):
        raise ValueError(f"inference must be 'full' or 'layerwise', got {inference!r}")
    model.eval()
    with no_grad():
        augmented = augmenter.inference_batch(features, labels, masks["train"])
    if inference == "layerwise" and isinstance(dist_graph, DistributedGraph):
        logits_data = distributed_layerwise_logits(
            dist_graph, model, augmented, batch_size=eval_batch_size
        )
    else:
        # Evaluation scores every row, so any MFG restriction is lifted for
        # the duration of the inference pass.
        restricted = getattr(dist_graph, "mfg_active", False)
        if restricted:
            dist_graph.set_mfg_active(False)
        try:
            dist_graph.begin_step()
            with no_grad():
                logits_data = model(dist_graph, Tensor(augmented)).data
        finally:
            if restricted:
                dist_graph.set_mfg_active(True)
    report = evaluation_report(logits_data, labels, masks, comm)
    model.train()
    return report, logits_data


def _distributed_sampled_epoch(dist_graph, sampler: DistributedNeighborSampler,
                               plan: DistributedSamplingPlan, model: Module,
                               optimizer, augmented: np.ndarray,
                               labels: np.ndarray, predict_mask: np.ndarray,
                               epoch: int, comm: Communicator) -> float:
    """One cooperative sampled epoch on one worker; returns the global mean loss.

    Every batch is a collective: all workers derive the identical global
    batch (same shuffle stream), sample their owned share of each layer,
    install the sampled per-layer block grids (shrunken halo exchanges), and
    take one gradient-synchronized optimizer step.

    With ``plan.overlap`` (the default), batch b+1's cooperative sampling —
    the per-layer ``sample_frontier`` allgathers included — runs on a
    background thread while batch b computes, so its wire time hides behind
    the forward/backward pass (the cost model accounts this under
    ``SAMPLING_OVERLAP_TAGS``).  The keyed, barrier-free frontier collectives
    (:meth:`Communicator.allgather_keyed`) make this safe: the sampling
    thread never touches the barrier or the collective counters the main
    thread's halo exchanges and allreduces rely on.  Block *installation*
    (which builds barrier-based halo exchanges) stays on the main thread.
    Overlap never changes what is sampled — only when the sampling happens.
    """
    order = epoch_seed_order(plan.seed, plan.train_seed_ids, epoch, plan.shuffle)
    predict_mask = np.asarray(predict_mask, dtype=bool)
    batch_mask = np.zeros(dist_graph.num_total_nodes, dtype=bool)
    total_loss = 0.0
    total_count = 0

    def _sample(index: int):
        batch_ids = order[index * plan.batch_size:(index + 1) * plan.batch_size]
        return batch_ids, sampler.sample_blocks(batch_ids, epoch, index)

    overlap = plan.overlap and plan.num_batches > 1
    executor = None
    ahead = None
    if overlap:
        executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sample-ahead")
        ahead = executor.submit(_sample, 0)
    try:
        for index in range(plan.num_batches):
            if overlap:
                batch_ids, blocks = ahead.result()
                if index + 1 < plan.num_batches:
                    ahead = executor.submit(_sample, index + 1)
            else:
                batch_ids, blocks = _sample(index)
            dist_graph.begin_step()
            dist_graph.install_restricted_layers(blocks, name="smp",
                                                 recompute_in_degrees=True)
            batch_mask[:] = False
            batch_mask[batch_ids] = True
            mask = predict_mask & batch_mask[dist_graph.global_node_ids]
            logits = model(dist_graph, Tensor(augmented))
            loss = _local_loss(logits, labels, mask)
            local_count = int(mask.sum())
            model.zero_grad()
            loss.backward()
            global_count = comm.allreduce_scalar(float(local_count))
            sync_gradients(model.parameters(), comm, scale=1.0 / max(global_count, 1.0))
            optimizer.step()
            total_loss += float(loss.data)
            total_count += local_count
    finally:
        # Every submitted future was consumed on the success path, so this
        # never waits there; on failure it abandons the in-flight sample
        # rather than blocking on a possibly-stuck collective.
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
    dist_graph.clear_restriction()
    totals = comm.allreduce(np.asarray([total_loss, float(total_count)], dtype=np.float64))
    # The allreduce above is a barrier: every rank has finished the epoch's
    # sampling, so the last stream payload is provably consumed everywhere.
    sampler.release()
    return float(totals[0]) / max(float(totals[1]), 1.0)


def distributed_train_worker(rank: int, comm: Communicator, shard, *,
                             model_factory: ModelFactory, feature_dim: int,
                             num_classes: int, config: TrainingConfig,
                             sar_config: SARConfig,
                             mfg_masks: Optional[Sequence[np.ndarray]] = None,
                             sampling: Optional[DistributedSamplingPlan] = None
                             ) -> Dict[str, Any]:
    """Per-worker training loop (executed by the simulated cluster).

    ``mfg_masks`` are the global per-layer required-node masks computed by the
    driver (:class:`DistributedTrainer`) when ``config.mfg_seeds`` is set:
    training epochs run with per-layer restricted blocks (smaller halo
    fetches), evaluation temporarily lifts the restriction so every row's
    logits exist.

    ``sampling`` (from ``config.sampler``) switches the worker to cooperative
    neighbour-sampled mini-batch training: per batch, the workers sample
    their owned share of the per-layer neighbourhoods, install the sampled
    block grids, and step the optimizer once — the halo exchange each batch
    covers only sampled sources.  Evaluation always runs unrestricted.
    """
    dist_graph = _build_distributed_graph(shard, comm, sar_config)
    if mfg_masks is not None:
        if not isinstance(dist_graph, DistributedGraph):
            raise ValueError("MFG-restricted training supports homogeneous graphs only")
        dist_graph.enable_mfg(mfg_masks)
    sampler: Optional[DistributedNeighborSampler] = None
    if sampling is not None:
        if mfg_masks is not None:
            raise ValueError("sampler and mfg_seeds are mutually exclusive")
        if not isinstance(dist_graph, DistributedGraph):
            raise ValueError("sampled distributed training supports homogeneous graphs only")
        sampler = DistributedNeighborSampler(sampling, shard.book, comm)
    feature_store = None
    if config.feature_store is not None:
        if config.feature_store != "kv":
            raise ValueError(
                "distributed training takes feature_store='kv' (each worker "
                f"wraps its shard's rows) or None, got {config.feature_store!r}"
            )
        _check_store_config(config)
        if not isinstance(dist_graph, DistributedGraph):
            raise ValueError("feature_store='kv' supports homogeneous graphs only")
        # Every worker constructs (and publishes) its store here — same
        # program point on every rank, the collective setup discipline the
        # store requires.  Attaching it routes layer-0 halo fetches through
        # the hot-row cache (the published payload is the shard's feature
        # matrix, which the store covers()).
        feature_store = shard.feature_store(
            comm, cache_bytes=config.feature_store_cache_bytes
        )
        dist_graph.attach_feature_store(feature_store)
    augmenter = _make_augmenter(config, num_classes)
    # Rank 0's initial weights are the ones every rank trains from (broadcast
    # below).  Thread workers draw them from one library-wide generator, so
    # rank 0 builds before any other rank draws — otherwise its weights
    # depend on how the worker threads interleave.
    if rank != 0:
        comm.barrier()
    model = model_factory(augmenter.augmented_dim(feature_dim))
    if rank == 0:
        comm.barrier()
    if hasattr(model, "set_comm"):
        model.set_comm(comm)
    broadcast_parameters(model.parameters(), comm)
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    scheduler = config.build_scheduler(optimizer)

    features = shard.node_data["feat"]
    labels = shard.node_data["label"]
    masks = {
        "train": shard.node_data["train_mask"],
        "val": shard.node_data["val_mask"],
        "test": shard.node_data["test_mask"],
    }
    seed_mask_local = None
    if mfg_masks is not None:
        # Under MFG restriction only the seed rows carry trustworthy logits;
        # the per-epoch loss mask is clipped to them.
        seed_mask_local = np.asarray(mfg_masks[-1], dtype=bool)[shard.global_node_ids]
    rng = np.random.default_rng(config.seed * 100_003 + rank)
    records: List[EpochRecord] = []

    for epoch in range(1, config.num_epochs + 1):
        timer = WorkerTimer().start()
        model.train()
        augmented, predict_mask = augmenter.training_batch(
            features, labels, masks["train"], rng
        )
        if sampler is not None:
            mean_loss = _distributed_sampled_epoch(
                dist_graph, sampler, sampling, model, optimizer, augmented,
                labels, predict_mask, epoch, comm,
            )
        else:
            dist_graph.begin_step()
            if seed_mask_local is not None:
                predict_mask = np.asarray(predict_mask, dtype=bool) & seed_mask_local
            logits = model(dist_graph, Tensor(augmented))
            loss = _local_loss(logits, labels, predict_mask)
            local_count = int(np.asarray(predict_mask).sum())
            model.zero_grad()
            loss.backward()
            global_count = comm.allreduce_scalar(float(local_count))
            sync_gradients(model.parameters(), comm, scale=1.0 / max(global_count, 1.0))
            optimizer.step()
            mean_loss = distributed_mean_loss(float(loss.data), local_count, comm)
        lr = scheduler.step() if scheduler else optimizer.lr
        elapsed = timer.stop()

        record = EpochRecord(epoch=epoch, loss=mean_loss, lr=lr, train_time_s=elapsed)
        if config.eval_every and (epoch % config.eval_every == 0 or epoch == config.num_epochs):
            accs, _ = _distributed_evaluate(dist_graph, model, augmenter, features,
                                            labels, masks, comm,
                                            inference=config.eval_inference,
                                            eval_batch_size=config.eval_batch_size)
            record.train_accuracy = accs["train"]
            record.val_accuracy = accs["val"]
            record.test_accuracy = accs["test"]
            if config.verbose and rank == 0:
                logger.info("epoch %d loss %.4f val %.4f test %.4f",
                            epoch, mean_loss, accs["val"], accs["test"])
        records.append(record)

    final_accs, logits = _distributed_evaluate(dist_graph, model, augmenter, features,
                                               labels, masks, comm,
                                               inference=config.eval_inference,
                                               eval_batch_size=config.eval_batch_size)
    cs_accs: Optional[Dict[str, float]] = None
    if config.correct_and_smooth:
        refined = config.cs_params(dist_graph, logits, labels, masks["train"])
        cs_accs = evaluation_report(refined, labels, masks, comm)
    result: Dict[str, Any] = {
        "records": records,
        "final_accuracies": final_accs,
        "cs_accuracies": cs_accs,
        "local_logits": logits,
        "global_node_ids": dist_graph.global_node_ids,
    }
    if feature_store is not None:
        result["feature_store_stats"] = feature_store.stats()
        # The evaluation collectives above are barriers: every peer has
        # finished fetching, so unpublishing the rows is safe.
        dist_graph.attach_feature_store(None)
        feature_store.release()
    return result


class DistributedTrainer:
    """Partition a dataset, launch a simulated cluster, train a model with SAR/DP."""

    def __init__(self, dataset: NodeClassificationDataset, model_factory: ModelFactory,
                 num_workers: int, sar_config: SARConfig = SAR,
                 config: Optional[TrainingConfig] = None,
                 partition_method: str = "metis", partition_seed: int = 0,
                 timeout_s: float = 600.0):
        self.dataset = dataset
        self.model_factory = model_factory
        self.num_workers = num_workers
        self.sar_config = sar_config
        self.config = config or TrainingConfig()
        self.partition_method = partition_method
        self.partition_seed = partition_seed
        self.timeout_s = timeout_s
        dataset.attach_to_graph()
        self.book, self.shards = self._prepare_shards()

    # ------------------------------------------------------------------ #
    def _prepare_shards(self):
        dataset = self.dataset
        assignment = partition_graph(dataset.graph, self.num_workers,
                                     method=self.partition_method, seed=self.partition_seed)
        book = PartitionBook(assignment, self.num_workers)
        if isinstance(dataset, HeteroNodeClassificationDataset) and dataset.hetero_graph is not None:
            shards = create_hetero_shards(dataset.hetero_graph, book)
        else:
            shards = create_shards(dataset.graph, book)
        return book, shards

    def _mfg_masks(self) -> Optional[List[np.ndarray]]:
        """Global per-layer required-node masks when MFG restriction is on."""
        if self.config.mfg_seeds is None:
            return None
        if isinstance(self.dataset, HeteroNodeClassificationDataset) and \
                self.dataset.hetero_graph is not None:
            raise ValueError("MFG-restricted training supports homogeneous graphs only")
        num_layers = self._probe_num_layers()
        if num_layers is None:
            raise ValueError(
                "mfg_seeds requires a model exposing num_layers (one restricted "
                "block grid is built per conv layer)"
            )
        return message_flow_masks(self.dataset.graph, self.config.mfg_seeds, num_layers)

    def _probe_num_layers(self) -> Optional[int]:
        """Read ``num_layers`` off a throwaway model replica.

        The probe exists only to read the attribute; its parameter draws are
        isolated so enabling MFG or sampling does not shift the workers'
        initial weights.
        """
        with temp_seed(0):
            probe = self.model_factory(self.dataset.feature_dim)
        return getattr(probe, "num_layers", None)

    def _sampling_plan(self) -> Optional[DistributedSamplingPlan]:
        """Per-worker sampling metadata when neighbour-sampled training is on."""
        if self.config.sampler is None:
            return None
        if isinstance(self.dataset, HeteroNodeClassificationDataset) and \
                self.dataset.hetero_graph is not None:
            raise ValueError("sampled distributed training supports homogeneous graphs only")
        _sampled_num_layers(self.config, self._probe_num_layers())
        return build_sampling_plan(
            self.dataset.graph, self.book, self.config.sampler,
            self.dataset.train_indices(), self.config.resolved_sampler_seed(),
        )

    def run(self) -> DistributedTrainingResult:
        cluster = SimulatedCluster(self.num_workers, timeout_s=self.timeout_s)
        result = cluster.run(
            distributed_train_worker,
            worker_args=self.shards,
            model_factory=self.model_factory,
            feature_dim=self.dataset.feature_dim,
            num_classes=self.dataset.num_classes,
            config=self.config,
            sar_config=self.sar_config,
            mfg_masks=self._mfg_masks(),
            sampling=self._sampling_plan(),
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
