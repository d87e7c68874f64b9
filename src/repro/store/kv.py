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
  **byte-bounded LRU cache** (:class:`~repro.utils.rowcache.RowCache`) of hot
  remote rows — on skewed access patterns (Zipf request mixes, frontier rows
  repeated across bursts) most remote rows are served locally and the
  fetch shrinks to the cold tail.

The cache holds one table per owner rank, addressed by the owner's local
row: a probe is one gather through an ``int64`` slot index (8 B per row of
the owner's partition, grown to the largest row fetched), an insert one
scatter, and the rows take at most ``cache_bytes``, plus a use log of about
48 B per cached row that lets eviction read the oldest rows first.

Cache hits, misses, and the bytes they kept off the wire are recorded both in
the store's own counters (:meth:`stats`) and in the communicator's
:class:`~repro.distributed.comm.CommStats` (``cache_hit_rows`` /
``cache_miss_rows`` / ``cache_hit_bytes``), so the benchmarks see them next
to the fetch volumes they reduce.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from repro.distributed.comm import Communicator, STREAM_KEY_PREFIX
from repro.partition.book import PartitionBook
from repro.store.base import FeatureStore
from repro.utils.rowcache import RowCache

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
        order (``book.nodes_of(comm.rank)`` order).  The store keeps the
        published array as its resident rows (``local_rows`` itself on
        threads, the read-only shared-memory copy on processes), so a forked
        worker holds its rows once.
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
        self._version = 1
        # One cache space per owner rank, keyed by the owner's local row.
        self._cache: Optional[RowCache] = (
            None if cache_bytes is None else RowCache(int(cache_bytes))
        )
        # Guards cache probes/inserts and the counters: one store may be read
        # from several threads at once — a sampled loader's prefetch workers
        # gathering batch inputs, or Server.stats() on a client thread beside
        # the serve thread's gathers.  comm.fetch runs outside the lock; a
        # concurrent double-fetch of the same row is benign (the second
        # insert only refreshes it).
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_fetched = 0
        self.bytes_saved = 0
        self.fetch_calls = 0
        self.gather_calls = 0
        self._local = comm.publish(self._key(), local_rows)

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
        for q in np.flatnonzero(np.bincount(owner)):
            sel = np.flatnonzero(owner == q)
            out[sel] = self.fetch_rows(int(q), local[sel])
        return out

    # -- remote row access ------------------------------------------------ #
    def fetch_rows(self, owner_rank: int, local_rows: np.ndarray) -> np.ndarray:
        """Rows of ``owner_rank``'s partition addressed by *local* row ids.

        Deduplicates the request, serves hot rows from the cache, coalesces
        the misses into one fetch, and returns the rows in request order.
        """
        local_rows = np.asarray(local_rows, dtype=np.int64)
        if owner_rank == self.comm.rank:
            return self._local[local_rows]
        if (local_rows[1:] > local_rows[:-1]).all():  # already unique, ascending
            unique, inverse = local_rows, None
        else:
            unique, inverse = np.unique(local_rows, return_inverse=True)
        cache = self._cache
        found, hits = np.zeros(len(unique), dtype=bool), None
        if cache is not None:
            row_bytes = self.dim * self.dtype.itemsize
            with self._cache_lock:
                found, hits = cache.lookup(owner_rank, unique)
                count = 0 if hits is None else len(hits)
                self.cache_hits += count
                self.cache_misses += len(unique) - count
                self.bytes_saved += count * row_bytes
                self.comm.stats.record_cache(count, len(unique) - count, count * row_bytes)
        rows = np.empty((len(unique), self.dim), dtype=self.dtype)
        if hits is not None:
            rows[np.flatnonzero(found)] = hits
        missing = np.flatnonzero(~found)
        if len(missing):
            fetched = self.comm.fetch(owner_rank, self._key(),
                                      rows=unique[missing], tag=FEATURE_FETCH_TAG)
            with self._cache_lock:
                self.fetch_calls += 1
                self.bytes_fetched += int(fetched.nbytes)
                if cache is not None:
                    cache.insert(owner_rank, unique[missing], fetched)
            rows[missing] = fetched
        return rows if inverse is None else rows[inverse]

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
        if self._cache is not None:
            with self._cache_lock:
                self._cache.clear()
        self._local = self.comm.publish(self._key(), local_rows)
        return self._version

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
            with self._cache_lock:
                out["cache_rows"] = len(self._cache)
                out["cache_bytes"] = self._cache.current_bytes
                out["cache_budget_bytes"] = self._cache.byte_budget
                out["cache_evictions"] = self._cache.evictions
        return out
