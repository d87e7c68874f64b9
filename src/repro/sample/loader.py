"""Mini-batch data loader: shuffled seed batches over bounded prefetch.

The loader owns the epoch structure of sampled training: a deterministic
per-epoch shuffle of the seed nodes, fixed-size batches, and a background
:class:`~repro.utils.prefetch.Prefetcher` that builds each batch — neighbour
sampling, block compaction and (optionally) the feature fetch — as one job on
``num_workers`` threads while earlier batches train.  At most
:attr:`MiniBatchDataLoader.max_resident` sampled batches are materialized at
any moment (default 2 — the batch being consumed plus one in flight); the
high-water mark is surfaced as
:attr:`MiniBatchDataLoader.peak_resident_batches`.

The trainers gather each batch's layer-0 rows themselves, when they take the
batch (:meth:`MiniBatch.gather_inputs`), so only the batch being trained has
its rows in memory.  Pre-gathering is opt-in:
:meth:`MiniBatchDataLoader.set_features` hands the loader the feature
matrix, after which every yielded batch arrives with :attr:`MiniBatch.inputs`
already gathered by the prefetch job.

Determinism is inherited from the sampler (see
:mod:`repro.sample.neighbor`): every batch's content depends only on
``(sampler seed, epoch, batch index)``, so prefetching threads, re-iterating
an epoch, or changing ``num_workers`` never changes what is sampled.  The
epoch shuffle uses the same counter-based derivation
(:func:`repro.utils.seed.derive_rng`), which is how the distributed workers
reproduce the exact global batch sequence without communicating.

The loader is sampler-agnostic: anything with ``seed``, ``num_nodes`` and
``sample(seeds, epoch, batch_index)`` drives it.  On one machine that is a
:class:`~repro.sample.neighbor.NeighborSampler` (each batch an
:class:`~repro.graph.mfg.MFGPipeline`); on a SAR / DP worker it is the
cooperative :class:`~repro.sample.distributed.DistributedNeighborSampler`
(each batch that worker's per-layer block grids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.store import FeatureStore, as_feature_store
from repro.utils.prefetch import Prefetcher
from repro.utils.seed import derive_rng
from repro.utils.validation import check_1d_int_array, check_positive_int

#: salt distinguishing the shuffle stream from the per-layer sampling streams.
_SHUFFLE_SALT = 0x5EED5_0F_5A17


def epoch_seed_order(seed: int, seeds: np.ndarray, epoch: int, shuffle: bool) -> np.ndarray:
    """The deterministic order seeds are batched in for ``epoch``.

    :class:`MiniBatchDataLoader` slices its batches from it — on one machine
    and on every distributed worker, which all derive the identical
    permutation from the shared sampler seed.
    """
    if not shuffle:
        return seeds
    rng = derive_rng(seed, _SHUFFLE_SALT, epoch)
    return seeds[rng.permutation(len(seeds))]


def num_batches_for(num_seeds: int, batch_size: int, drop_last: bool) -> int:
    """Number of batches an epoch over ``num_seeds`` seeds produces."""
    if drop_last:
        return num_seeds // batch_size
    return (num_seeds + batch_size - 1) // batch_size


@dataclass
class NeighborSamplingConfig:
    """Declarative sampled-training setup consumed by the trainers.

    Parameters
    ----------
    fanouts:
        One entry per conv layer of the model, input → output order; each an
        ``int`` (``-1`` = full neighbourhood) or, for heterogeneous graphs, a
        ``relation name -> int`` mapping naming every relation.
    batch_size:
        Seed nodes per mini-batch (one optimizer step each).
    replace, shuffle, drop_last:
        Sampling / epoch-structure switches (see
        :class:`~repro.sample.neighbor.NeighborSampler` and
        :class:`MiniBatchDataLoader`).
    num_workers:
        Background sampling threads (``0`` = synchronous).  A distributed
        worker builds its loader with at most one (its cooperative frontier
        exchanges must run in batch order), so there any value ``>= 1``
        means one.
    max_resident_batches:
        Bound on materialized sampled batches, the one being trained
        included (the prefetch window) — on one machine
        (:attr:`MiniBatchDataLoader.max_resident`) and on every distributed
        worker alike.
    seed:
        Base sampler seed; ``None`` falls back to the training config's seed
        so one seed pins the whole run.  Identical configs train identical
        batch sequences on one machine and across SAR workers (the
        counter-based determinism guarantee of
        :mod:`repro.sample.neighbor`).
    """

    fanouts: Sequence[Any] = (10, 10)
    batch_size: int = 128
    replace: bool = False
    shuffle: bool = True
    drop_last: bool = False
    #: background sampling threads (0 = sample synchronously on the consumer)
    num_workers: int = 1
    #: bound on materialized sampled batches, the one being trained included
    max_resident_batches: int = 2
    seed: Optional[int] = None

    def loader(self, sampler, seeds: np.ndarray) -> "MiniBatchDataLoader":
        """The :class:`MiniBatchDataLoader` of this epoch structure over ``seeds``."""
        return MiniBatchDataLoader(
            sampler, seeds, batch_size=self.batch_size, shuffle=self.shuffle,
            drop_last=self.drop_last, num_workers=self.num_workers,
            max_resident=self.max_resident_batches,
        )


@dataclass
class MiniBatch:
    """One sampled mini-batch: the sampler's output plus its bookkeeping ids."""

    epoch: int
    index: int
    #: seed node ids, deduplicated ascending — on one machine identical to
    #: ``pipeline.output_nodes``
    seeds: np.ndarray
    #: what the sampler returned: an :class:`~repro.graph.mfg.MFGPipeline` on
    #: one machine, this worker's per-layer ``EdgeBlock`` grids on a SAR / DP
    #: worker (where the input-feature helpers below do not apply)
    pipeline: Any
    #: layer-0 input features, pre-gathered by the loader's prefetch job
    #: when :meth:`MiniBatchDataLoader.set_features` was called;
    #: ``None`` otherwise (the trainers' batches: they gather at use).
    inputs: Optional[np.ndarray] = None

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose input features the batch's layer 0 consumes."""
        return self.pipeline.input_nodes

    def gather_inputs(self, features: np.ndarray) -> np.ndarray:
        """Layer-0 input rows of the full-graph feature matrix."""
        return self.pipeline.gather_inputs(features)

    def input_features(self, features: np.ndarray) -> np.ndarray:
        """The batch's layer-0 input rows — prefetched if available.

        Returns :attr:`inputs` when the loader's prefetch job already gathered
        them (overlapping the previous batch's compute), else gathers from
        the full-graph matrix ``features`` on the calling thread.
        """
        if self.inputs is not None:
            return self.inputs
        return self.gather_inputs(features)


@dataclass
class MiniBatchDataLoader:
    """Iterate sampled mini-batches over a seed-node set.

    Parameters
    ----------
    sampler:
        The sampler batches are drawn from — a
        :class:`~repro.sample.neighbor.NeighborSampler`, or a worker's
        :class:`~repro.sample.distributed.DistributedNeighborSampler` (its
        seed also keys the epoch shuffle).
    seeds:
        Seed node ids batches are formed over (typically the training nodes).
    batch_size:
        Seeds per batch (the final short batch is kept unless ``drop_last``).
    shuffle:
        Reshuffle the seed order every epoch (deterministically per epoch).
    num_workers:
        Background sampling threads; ``0`` samples on the consuming thread.
    max_resident:
        Bound on simultaneously materialized batches (the one being consumed
        and in-flight prefetches included).
    """

    sampler: Any
    seeds: np.ndarray
    batch_size: int = 128
    shuffle: bool = True
    drop_last: bool = False
    num_workers: int = 1
    max_resident: int = 2

    def __post_init__(self) -> None:
        self.seeds = check_1d_int_array(self.seeds, "seeds", max_value=self.sampler.num_nodes)
        if self.seeds.size == 0:
            raise ValueError("MiniBatchDataLoader needs at least one seed node")
        self.batch_size = check_positive_int(self.batch_size, "batch_size")
        self._prefetcher = Prefetcher(self.max_resident, self.num_workers, name="loader")
        if len(self) == 0:
            raise ValueError(
                f"drop_last with batch_size={self.batch_size} leaves no batches "
                f"for {len(self.seeds)} seeds"
            )
        self._auto_epoch = 0
        self._features: Optional[FeatureStore] = None

    def set_features(self, features) -> None:
        """Enable (or with ``None`` disable) the prefetched feature fetch.

        The trainers do not enable it: they gather each batch's rows when
        they take the batch, so the next batch's rows are not held through
        the current batch's step (one batch's rows alive, not two).

        ``features`` may be a full-graph ``(num_nodes, F)`` matrix (wrapped
        in a zero-copy :class:`~repro.store.DenseStore`) or any
        :class:`~repro.store.FeatureStore`.  Shape and dtype are validated
        **here**, eagerly — a wrong-sized matrix used to surface batches
        later as an opaque fancy-indexing ``IndexError`` on a prefetch
        thread.

        Once set, every yielded :class:`MiniBatch` carries its layer-0 input
        rows in :attr:`MiniBatch.inputs`, gathered by the prefetch job so the
        copy overlaps the consumer's compute.  The rows are read, never
        written; the caller may swap the features between epochs but must not
        mutate them while an epoch is being iterated.
        """
        if features is None:
            self._features = None
            return
        store = as_feature_store(features)
        if store.num_rows != self.sampler.num_nodes:
            raise ValueError(
                f"feature rows ({store.num_rows}) do not match the sampler's "
                f"graph ({self.sampler.num_nodes} nodes); set_features needs "
                "one row per graph node, in global-id order"
            )
        if not (np.issubdtype(store.dtype, np.floating)
                or np.issubdtype(store.dtype, np.integer)):
            raise TypeError(
                f"feature dtype {np.dtype(store.dtype)} is not numeric; the "
                "models consume floating or integer node features"
            )
        self._features = store

    def __len__(self) -> int:
        return num_batches_for(len(self.seeds), self.batch_size, self.drop_last)

    def batch_seed_ids(self, epoch: int, index: int) -> np.ndarray:
        """Seed ids of batch ``index`` of ``epoch`` (pre-deduplication order)."""
        order = epoch_seed_order(self.sampler.seed, self.seeds, epoch, self.shuffle)
        return order[index * self.batch_size : (index + 1) * self.batch_size]

    @property
    def peak_resident_batches(self) -> int:
        """High-water mark of simultaneously resident sampled batches (telemetry)."""
        return self._prefetcher.peak_resident

    def _make_batch(self, order: np.ndarray, epoch: int, index: int) -> MiniBatch:
        ids = order[index * self.batch_size : (index + 1) * self.batch_size]
        pipeline = self.sampler.sample(ids, epoch=epoch, batch_index=index)
        batch = MiniBatch(epoch=epoch, index=index, seeds=np.unique(ids), pipeline=pipeline)
        store = self._features
        if store is not None:
            batch.inputs = store.gather(batch.input_nodes)
        return batch

    def iter_epoch(self, epoch: int) -> Iterator[MiniBatch]:
        """Yield the epoch's batches in order, building up to
        ``max_resident - 1`` of them ahead of the consumer on
        ``num_workers`` threads (``num_workers=0`` builds each on the
        consuming thread).

        Re-iterating the same ``epoch`` yields identical batches.
        """
        order = epoch_seed_order(self.sampler.seed, self.seeds, epoch, self.shuffle)
        return self._prefetcher.run(lambda index: self._make_batch(order, epoch, index),
                                    range(len(self)))

    def __iter__(self) -> Iterator[MiniBatch]:
        """Iterate one epoch, auto-advancing the epoch counter per pass."""
        epoch = self._auto_epoch
        self._auto_epoch += 1
        return self.iter_epoch(epoch)
