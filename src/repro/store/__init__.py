"""Pluggable feature storage: one gather interface, three backends.

* :class:`~repro.store.base.FeatureStore` — the protocol every feature
  consumer (loader feature prefetch, layer-wise inference, serving,
  single-machine trainers) reads through,
* :class:`~repro.store.dense.DenseStore` — zero-copy wrapper of the resident
  dense matrix (the identity backend; today's behavior),
* :class:`~repro.store.kv.PartitionedKVStore` — rows partitioned across
  workers, pulled by global id with request coalescing and a byte-bounded
  hot-row LRU cache,
* :class:`~repro.store.sparse.SparseEmbeddingStore` — learnable node
  embeddings whose backward yields per-row sparse gradients for the sparse
  optimizers in :mod:`repro.tensor.optim`.

See ``docs/feature_store.md`` for the backend matrix and consistency rules.
"""

from repro.store.base import FeatureStore, as_feature_store
from repro.store.dense import DenseStore
from repro.store.kv import FEATURE_FETCH_TAG, PartitionedKVStore
from repro.store.sparse import SparseEmbeddingStore

__all__ = [
    "FeatureStore",
    "as_feature_store",
    "DenseStore",
    "PartitionedKVStore",
    "SparseEmbeddingStore",
    "FEATURE_FETCH_TAG",
]
