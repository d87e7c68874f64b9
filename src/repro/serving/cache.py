"""Historical-embedding cache: byte-bounded LRU of per-node layer activations.

The serving hot path recomputes a request's full receptive field from raw
features on every batch.  But in ``eval()`` mode every activation is a pure
function of ``(model version, graph, node id, layer)`` — BatchNorm applies
running statistics, Dropout is the identity, and every compacted block
preserves complete in-neighbourhoods — so the layer-``l`` activation of node
``v`` computed inside *any* request batch is **bit-identical** to the value
any other batch (or the full-graph forward) would compute.  That makes
activations safely memoizable: :class:`EmbeddingCache` keeps an LRU of rows
keyed by ``(layer, node id)``, and the server's receptive-field walk probes
a level's nodes in one call (see :meth:`repro.serving.LocalExecutor.compute`):
a cached row is a leaf that is spliced into its layer's input matrix, only a
missed row expands to its in-neighbourhood one layer down, so the work of a
request tracks its miss set.

The rows sit in a :class:`~repro.utils.rowcache.RowCache`, one space per
layer: a probe or an insert is a few array operations over the level, not a
dict operation per node.  It costs 8 B per node id up to the largest id a
layer has stored (the ``slot_of`` index), plus at most ``capacity_bytes`` of
rows and a use log of about 48 B per cached row.

Layer indices follow the MFG mask convention: layer ``l`` holds the *input*
activations of conv layer ``l``; layer ``num_layers`` holds the logits, so a
fully cached seed set skips compute entirely.  Layer ``0`` (raw features) is
never cached — the server already holds the feature matrix.

Consistency is by **explicit version bump**: mutating the model (or graph)
without calling :meth:`bump_version` is a contract violation.  A bump drops
every row at once, under the lock (their memory is reclaimed immediately),
and advances the version, so a reader sees either the old rows or none, and
a :meth:`~EmbeddingCache.put` that began before the bump stores nothing.

All methods are lock-protected; the server mutates the cache from its single
worker thread while ``stats()`` may be read from any client thread.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rowcache import RowCache
from repro.utils.validation import check_positive_int


class EmbeddingCache:
    """Byte-bounded LRU of per-node activation rows.

    Parameters
    ----------
    capacity_bytes:
        Bound on the summed ``nbytes`` of cached rows.  Inserting beyond it
        evicts least-recently-used rows until the cache fits again (a single
        batch larger than the whole capacity simply does not stick).

    Notes
    -----
    There is one probe, :meth:`lookup_partial`: every probed ``(layer,
    node)`` is exactly one hit or one miss, so ``hits + misses`` is the
    number of rows probed and ``hits / (hits + misses)`` the hit ratio.  The
    local executor probes each level's nodes through it, a shard worker the
    level's nodes it owns.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = check_positive_int(capacity_bytes, "capacity_bytes")
        self.version = 1
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0
        self._lock = threading.Lock()
        # One space per layer, keyed by node id; byte accounting and LRU
        # eviction (and the eviction counter) are the table's.
        self._rows = RowCache(self.capacity_bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"EmbeddingCache(version={self.version}, rows={len(self._rows)}, "
            f"bytes={self._rows.current_bytes}/{self.capacity_bytes})"
        )

    # ------------------------------------------------------------------ #
    def lookup_partial(
        self, layer: int, node_ids: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-row probe: ``(found_mask, hit_rows)`` for ``node_ids``.

        Partial coverage is useful: the serving walks expand only the
        *missed* nodes of a level, so every hit is work saved even when the
        set is not fully covered.  ``found_mask[i]`` says whether row ``i``
        was cached; ``hit_rows`` stacks the hit rows in probe order — a
        fresh array — or is ``None`` when nothing hit.  Hits are marked
        most-recently-used and counted.
        """
        with self._lock:
            found_mask, hit_rows = self._rows.lookup(layer, node_ids)
            hits = 0 if hit_rows is None else len(hit_rows)
            self.hits += hits
            self.misses += len(found_mask) - hits
            return found_mask, hit_rows

    def put(self, layer: int, node_ids: np.ndarray, values: np.ndarray) -> None:
        """Insert ``values[i]`` as layer-``layer`` activation of ``node_ids[i]``.

        Rows are copied (the caller's matrix stays untouched by later
        evictions); already-present rows are refreshed, not re-stored.  Rows
        computed before a :meth:`bump_version` that lands while this call
        waits for the lock are dropped.
        """
        if len(node_ids) != len(values):
            raise ValueError(
                f"node_ids has {len(node_ids)} entries but values has "
                f"{len(values)} rows"
            )
        version = self.version
        with self._lock:
            if version == self.version:
                self.insertions += self._rows.insert(layer, node_ids, values)

    def bump_version(self) -> int:
        """Invalidate everything: advance the version stamp, drop all rows.

        Call after *any* model (or graph) mutation; returns the new version.
        Counters other than ``current_bytes`` survive, so telemetry keeps
        accumulating across versions.
        """
        with self._lock:
            self.version += 1
            self.invalidations += 1
            self._rows.clear()
            return self.version

    def stats(self) -> Dict[str, int]:
        """Telemetry snapshot: hit/miss/insert/evict counters and byte usage."""
        with self._lock:
            return {
                "version": self.version,
                "hits": self.hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self._rows.evictions,
                "invalidations": self.invalidations,
                "rows": len(self._rows),
                "current_bytes": self._rows.current_bytes,
                "capacity_bytes": self.capacity_bytes,
            }
