"""Serving configuration.

One :class:`ServingConfig` (mirroring :class:`repro.training.TrainingConfig`)
carries every serving knob — the micro-batching window, the embedding-cache
byte budget, timeouts, and the ``backend`` selector —
and :func:`repro.serving.create_server` turns it plus a model, a graph (or
shard list) and features (or a feature store) into a
:class:`repro.serving.Server` over the matching executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

_BACKENDS = ("local", "distributed", "mp")
_FEATURE_STORES = ("dense", "kv")


@dataclass(frozen=True)
class ServingConfig:
    """Every serving knob in one (frozen, validated) place.

    The defaults: a 2 ms coalescing window, no embedding cache, local backend.
    """

    #: ``"local"`` serves one machine holding the whole graph;
    #: ``"distributed"`` fronts a partitioned graph with per-shard worker
    #: threads; ``"mp"`` fronts the same shards with one forked worker
    #: *process* per shard (real parallelism, queue-serialized payloads —
    #: see ``docs/serving.md`` for the trade).
    backend: str = "local"
    #: micro-batching window: requests arriving within this many
    #: milliseconds of each other coalesce into one deduplicated execution
    #: (``0`` disables coalescing — one request per execution).
    window_ms: float = 2.0
    #: cap on the deduplicated seed count of one coalesced batch.
    max_batch_seeds: int = 1024
    #: bound on queued requests before ``predict_async`` rejects.
    max_pending: int = 4096
    #: embedding-cache capacity in bytes (``None`` disables the cache).
    #: Distributed servers give *each* worker a cache of this size.
    byte_budget: Optional[int] = None
    #: seconds a synchronous ``predict`` waits before raising.
    predict_timeout_s: float = 30.0
    #: seconds ``stop`` waits for the worker thread(s) to drain and join.
    stop_timeout_s: float = 30.0
    #: distributed only — communicator timeout for collectives and fetches.
    comm_timeout_s: float = 120.0
    #: distributed only — how each worker holds its shard's features:
    #: ``"kv"`` wraps them in a :class:`repro.store.PartitionedKVStore`
    #: (owned rows local, remote rows pulled and hot-cached), ``"dense"``
    #: shares one dense matrix.  Ignored when a ready-made store (or one
    #: per worker) is passed to :func:`repro.serving.create_server`.
    feature_store: str = "kv"
    #: distributed only — per-worker byte budget of the KV store's hot-row
    #: cache (``feature_store="kv"``).
    feature_cache_bytes: int = 1 << 22

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {self.window_ms}")
        if self.max_batch_seeds < 1:
            raise ValueError(
                f"max_batch_seeds must be >= 1, got {self.max_batch_seeds}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.byte_budget is not None and self.byte_budget < 1:
            raise ValueError(
                f"byte_budget must be None or >= 1, got {self.byte_budget}"
            )
        for name in ("predict_timeout_s", "stop_timeout_s", "comm_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.feature_store not in _FEATURE_STORES:
            raise ValueError(
                f"feature_store must be one of {_FEATURE_STORES}, "
                f"got {self.feature_store!r}"
            )
        if self.feature_cache_bytes < 0:
            raise ValueError(
                f"feature_cache_bytes must be >= 0, "
                f"got {self.feature_cache_bytes}"
            )
        # A cross-field combination that would only fail deep inside a
        # running server is rejected here instead.
        if self.predict_timeout_s * 1e3 <= self.window_ms:
            raise ValueError(
                f"predict_timeout_s ({self.predict_timeout_s}s) must exceed "
                f"the coalescing window ({self.window_ms}ms) or every "
                f"synchronous predict times out before its batch can close"
            )
