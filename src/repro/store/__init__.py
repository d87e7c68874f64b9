"""Pluggable feature storage: one gather interface, two backends.

* :class:`~repro.store.base.FeatureStore` — the protocol every feature
  consumer (loader feature prefetch, layer-wise inference, serving) reads
  through; training reads the dataset's feature matrix directly,
* :class:`~repro.store.dense.DenseStore` — zero-copy wrapper of the resident
  dense matrix (the identity backend; today's behavior),
* :class:`~repro.store.kv.PartitionedKVStore` — rows partitioned across
  workers, pulled by global id with request coalescing and a byte-bounded
  hot-row LRU cache.

See ``docs/feature_store.md`` for the backend matrix and consistency rules.
"""

from repro.store.base import FeatureStore, as_feature_store
from repro.store.dense import DenseStore
from repro.store.kv import FEATURE_FETCH_TAG, PartitionedKVStore

__all__ = [
    "FeatureStore",
    "as_feature_store",
    "DenseStore",
    "PartitionedKVStore",
    "FEATURE_FETCH_TAG",
]
