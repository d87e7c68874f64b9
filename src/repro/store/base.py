"""The :class:`FeatureStore` protocol: one interface between compute and bytes.

The feature consumers outside training — the mini-batch loader's feature
prefetch, layer-wise inference and the serving server — read node features
through one contract instead of each indexing a dense ``(N, F)`` matrix its
own way:

* :meth:`gather` — rows by global node id (the only read primitive),
* :attr:`num_rows` / :attr:`dim` / :attr:`dtype` — the logical matrix shape,
* :attr:`version` — a monotonically increasing stamp advanced by *any*
  mutation of the stored values, so downstream caches (the serving
  :class:`~repro.serving.cache.EmbeddingCache`, the KV store's hot-row
  cache) can compose their own invalidation with the store's.

Training reads the dataset's feature matrix itself: one machine indexes each
batch's rows out of it, and a SAR worker reads its shard's rows and fetches
every layer's halo through the communicator.

Backends are interchangeable by construction: the bit-parity matrix in
``tests/test_feature_store.py`` asserts that layer-wise inference and
serving produce identical logits whichever backend feeds them.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np


class FeatureStore(abc.ABC):
    """Abstract row store addressed by global node id."""

    # -- logical shape --------------------------------------------------- #
    @property
    @abc.abstractmethod
    def num_rows(self) -> int:
        """Number of rows (nodes) the store covers."""

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Feature width of every row."""

    @property
    @abc.abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype of the stored rows."""

    @property
    @abc.abstractmethod
    def version(self) -> int:
        """Monotonic stamp advanced by every mutation of the stored values.

        Consumers that cache derived state (serving activation caches,
        hot-row caches) key or invalidate by this stamp; reading rows never
        changes it.
        """

    # -- reads ----------------------------------------------------------- #
    @abc.abstractmethod
    def gather(self, node_ids: Optional[np.ndarray]) -> np.ndarray:
        """Rows for ``node_ids`` in request order; ``None`` = all rows.

        The returned array is safe for the caller to *read* for the current
        version; whether it aliases internal storage is backend-defined
        (:class:`~repro.store.dense.DenseStore` returns views for the
        zero-copy fast path), so callers must not write into it.
        """

    # -- telemetry -------------------------------------------------------- #
    def stats(self) -> Dict[str, int]:
        """Backend telemetry (cache hits, bytes moved, ...); may be empty."""
        return {}

    # -- shared validation ------------------------------------------------ #
    def _check_ids(self, node_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(node_ids)
        if ids.ndim != 1:
            raise ValueError(f"node_ids must be 1-D, got shape {ids.shape}")
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.num_rows):
            raise IndexError(
                f"node_ids must lie in [0, {self.num_rows}), got range "
                f"[{int(ids.min())}, {int(ids.max())}]"
            )
        return ids.astype(np.int64, copy=False)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_rows={self.num_rows}, dim={self.dim}, "
            f"dtype={np.dtype(self.dtype).name}, version={self.version})"
        )


def as_feature_store(features) -> FeatureStore:
    """Coerce ``features`` to a :class:`FeatureStore`.

    A store passes through unchanged; a 2-D array is wrapped in a zero-copy
    :class:`~repro.store.dense.DenseStore`.  This is the adapter every
    consumer applies at its boundary, so call sites accept either
    representation.
    """
    if isinstance(features, FeatureStore):
        return features
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise ValueError(
            f"features must be a FeatureStore or a 2-D array, got shape {arr.shape}"
        )
    from repro.store.dense import DenseStore

    return DenseStore(arr)
