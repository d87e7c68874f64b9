"""Partitioned KV feature backend: pull-by-global-id with a hot-row cache.

Each worker owns its partition's feature rows and makes them remotely
readable through the existing :class:`~repro.distributed.comm.Communicator`
publish/fetch machinery (under a :data:`~repro.distributed.comm.
STREAM_KEY_PREFIX` key, so the per-iteration ``clear_published`` sweep never
reclaims them).  :meth:`PartitionedKVStore.gather` then serves *any* global
node id from *any* worker:

* ids are split by owner (the :class:`~repro.partition.book.PartitionBook`),
* the caller's own rows are sliced directly from the resident matrix,
* remote ids are **deduplicated and coalesced** into at most one fetch per
  owner per call,
* and before anything touches the wire, each remote row is probed in a
  **byte-bounded LRU cache** (:class:`~repro.utils.lru.LRUDict`) of hot
  remote rows — on skewed access patterns (Zipf request mixes, repeated halo
  sources across mini-batches) most remote rows are served locally and the
  fetch shrinks to the cold tail.

Cache hits, misses, and the bytes they kept off the wire are recorded both in
the store's own counters (:meth:`stats`) and in the communicator's
:class:`~repro.distributed.comm.CommStats` (``cache_hit_rows`` /
``cache_miss_rows`` / ``cache_hit_bytes``), so the epoch cost model and the
benchmarks see them next to the fetch volumes they reduce.

The distributed halo path plugs in through :meth:`covers` +
:meth:`fetch_rows`: when a SAR aggregation's published payload *is* the
static feature matrix (layer 0 of every epoch), the
:class:`~repro.core.seq_agg.SequentialAggregationEngine` routes the block's
``required_src_local`` rows through :meth:`fetch_rows` instead of a raw
``comm.fetch`` — so repeated frontier sources across batches hit the cache
and halo traffic stops being proportional to frontier size.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from repro.distributed.comm import Communicator, STREAM_KEY_PREFIX
from repro.partition.book import PartitionBook
from repro.store.base import FeatureStore
from repro.utils.lru import LRUDict

#: tag under which coalesced remote feature rows travel (CommStats breakdown)
FEATURE_FETCH_TAG = "feature_fetch"


class PartitionedKVStore(FeatureStore):
    """Feature rows partitioned across workers, pulled by global node id.

    Parameters
    ----------
    comm:
        This worker's communicator.  Construction publishes the local rows;
        every worker of the world must construct its store with the same
        ``name`` before any worker gathers remote rows (the usual collective
        setup discipline — the trainers do it right after sharding).
    book:
        The partition book mapping global ids to ``(owner, local row)``.
    local_rows:
        ``(num_local_nodes, dim)`` — the rows this worker owns, in local-id
        order (``book.nodes_of(comm.rank)`` order).  Held by reference.
    name:
        Namespace for the published key; two stores on the same communicator
        need distinct names.
    cache_bytes:
        Byte budget of the hot remote-row cache.  ``None`` disables caching
        (every gather fetches its remote rows); ``0`` keeps the cache code
        path but retains nothing (a "cache off" baseline).
    """

    def __init__(self, comm: Communicator, book: PartitionBook,
                 local_rows: np.ndarray, name: str = "feat",
                 cache_bytes: Optional[int] = 1 << 22):
        local_rows = np.asarray(local_rows)
        if local_rows.ndim != 2:
            raise ValueError(
                f"local_rows must be 2-D, got shape {local_rows.shape}"
            )
        expected = len(book.nodes_of(comm.rank))
        if local_rows.shape[0] != expected:
            raise ValueError(
                f"rank {comm.rank} owns {expected} nodes but local_rows has "
                f"{local_rows.shape[0]} rows"
            )
        self.comm = comm
        self.book = book
        self.name = name
        self._local = local_rows
        self._version = 1
        self._cache: Optional[LRUDict] = (
            None if cache_bytes is None
            else LRUDict(capacity=None, byte_budget=int(cache_bytes))
        )
        # Guards cache probes/inserts: the engine's prefetch thread and the
        # consuming thread (loader feature prefetch, trainer) may fetch
        # concurrently.  comm.fetch runs outside the lock; a concurrent
        # double-fetch of the same row is benign (idempotent insert).
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_fetched = 0
        self.bytes_saved = 0
        self.fetch_calls = 0
        self.gather_calls = 0
        comm.publish(self._key(), local_rows)

    def _key(self) -> str:
        # Versioned stream key: survives clear_published, and a replace()
        # can never serve stale rows to a peer still holding the old stamp.
        return f"{STREAM_KEY_PREFIX}featstore/{self.name}/v{self._version}"

    # -- FeatureStore interface ------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return int(self.book.num_nodes)

    @property
    def dim(self) -> int:
        return int(self._local.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._local.dtype

    @property
    def version(self) -> int:
        return self._version

    @property
    def local_matrix(self) -> np.ndarray:
        """This worker's resident rows (local-id order)."""
        return self._local

    def covers(self, payload: np.ndarray) -> bool:
        """Whether ``payload`` *is* this worker's resident feature matrix.

        The halo-routing hook: the engine only substitutes the store for the
        raw fetch when the aggregation's published payload is identical (by
        object) to the store's matrix — by replicated control flow every
        worker then publishes its own store rows, so peer fetches through
        :meth:`fetch_rows` read exactly what a raw fetch would have.
        """
        return payload is self._local

    def gather(self, node_ids: Optional[np.ndarray]) -> np.ndarray:
        """Rows for global ``node_ids`` (``None`` = all rows, ascending id)."""
        if node_ids is None:
            node_ids = np.arange(self.num_rows, dtype=np.int64)
        ids = self._check_ids(node_ids)
        self.gather_calls += 1
        out = np.empty((len(ids), self.dim), dtype=self.dtype)
        if not len(ids):
            return out
        owner, local = self.book.to_local(ids)
        mine = owner == self.comm.rank
        if mine.any():
            out[mine] = self._local[local[mine]]
        for q in np.unique(owner[~mine]):
            sel = owner == q
            out[sel] = self.fetch_rows(int(q), local[sel])
        return out

    # -- remote row access (also the halo-path entry point) --------------- #
    def fetch_rows(self, owner_rank: int, local_rows: np.ndarray) -> np.ndarray:
        """Rows of ``owner_rank``'s partition addressed by *local* row ids.

        Deduplicates the request, serves hot rows from the cache, coalesces
        the misses into one fetch, and returns the rows in request order.
        """
        local_rows = np.asarray(local_rows, dtype=np.int64)
        if owner_rank == self.comm.rank:
            return self._local[local_rows]
        unique, inverse = np.unique(local_rows, return_inverse=True)
        rows = np.empty((len(unique), self.dim), dtype=self.dtype)
        cache = self._cache
        row_bytes = self.dim * self.dtype.itemsize
        if cache is None:
            missing = np.arange(len(unique))
        else:
            missing_list = []
            with self._cache_lock:
                for i, row in enumerate(unique):
                    hit = cache.get((owner_rank, int(row)))
                    if hit is None:
                        missing_list.append(i)
                    else:
                        rows[i] = hit
            missing = np.asarray(missing_list, dtype=np.int64)
            hits = len(unique) - len(missing)
            self.cache_hits += hits
            self.cache_misses += len(missing)
            self.bytes_saved += hits * row_bytes
            self.comm.stats.record_cache(hits, len(missing), hits * row_bytes)
        if len(missing):
            fetched = self.comm.fetch(owner_rank, self._key(),
                                      rows=unique[missing], tag=FEATURE_FETCH_TAG)
            rows[missing] = fetched
            self.fetch_calls += 1
            self.bytes_fetched += int(fetched.nbytes)
            if cache is not None:
                with self._cache_lock:
                    for i, row in zip(missing, unique[missing]):
                        # Per-row copies: eviction frees each row
                        # independently instead of pinning the fetched block.
                        cache[(owner_rank, int(row))] = rows[i].copy()
        return rows[inverse]

    # -- mutation --------------------------------------------------------- #
    def replace(self, local_rows: np.ndarray) -> int:
        """Swap this worker's rows and invalidate every cache (collective).

        All workers must replace at the same point (the versioned key means a
        peer fetching under the old stamp would block forever rather than
        read torn data).  Returns the new version.
        """
        local_rows = np.asarray(local_rows)
        if local_rows.shape != self._local.shape:
            raise ValueError(
                f"replacement must have shape {self._local.shape}, got "
                f"{local_rows.shape}"
            )
        self.comm.unpublish(self._key())
        self._version += 1
        self._local = local_rows
        if self._cache is not None:
            with self._cache_lock:
                self._cache.clear()
        self.comm.publish(self._key(), local_rows)
        return self._version

    def release(self) -> None:
        """Unpublish the local rows (end of the store's life)."""
        self.comm.unpublish(self._key())

    # -- telemetry -------------------------------------------------------- #
    def stats(self) -> Dict[str, int]:
        out = {
            "version": self._version,
            "gather_calls": self.gather_calls,
            "fetch_calls": self.fetch_calls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bytes_fetched": self.bytes_fetched,
            "bytes_saved": self.bytes_saved,
        }
        if self._cache is not None:
            out["cache_rows"] = len(self._cache)
            out["cache_bytes"] = self._cache.current_bytes
            out["cache_budget_bytes"] = self._cache.byte_budget
            out["cache_evictions"] = self._cache.evictions
        return out
