"""Historical-embedding cache: byte-bounded LRU of per-node layer activations.

The serving hot path recomputes a request's full receptive field from raw
features on every batch.  But in ``eval()`` mode every activation is a pure
function of ``(model version, graph, node id, layer)`` — BatchNorm applies
running statistics, Dropout is the identity, and every compacted block
preserves complete in-neighbourhoods — so the layer-``l`` activation of node
``v`` computed inside *any* request batch is **bit-identical** to the value
any other batch (or the full-graph forward) would compute.  That makes
activations safely memoizable: :class:`EmbeddingCache` keeps an LRU of rows
keyed by ``(version, layer, node id)``, and the server's receptive-field
walk probes it node by node (see :meth:`repro.serving.LocalExecutor.compute`):
a cached row is a leaf that is spliced into its layer's input matrix, only a
missed row expands to its in-neighbourhood one layer down, so the work of a
request tracks its miss set.

Layer indices follow the MFG mask convention: layer ``l`` holds the *input*
activations of conv layer ``l``; layer ``num_layers`` holds the logits, so a
fully cached seed set skips compute entirely.  Layer ``0`` (raw features) is
never cached — the server already holds the feature matrix.

Consistency is by **explicit version bump**: mutating the model (or graph)
without calling :meth:`bump_version` is a contract violation.  A bump drops
every entry eagerly (their memory is reclaimed immediately) and advances the
version stamp in the key, so even a racing reader can never mix activations
across versions.

All methods are lock-protected; the server mutates the cache from its single
worker thread while ``stats()`` may be read from any client thread.
"""

from __future__ import annotations

import operator
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.lru import LRUDict
from repro.utils.validation import check_positive_int


class EmbeddingCache:
    """Byte-bounded LRU of per-node activation rows.

    Parameters
    ----------
    capacity_bytes:
        Bound on the summed ``nbytes`` of cached rows.  Inserting beyond it
        evicts least-recently-used rows until the cache fits again (a single
        batch larger than the whole capacity simply does not stick).
    admission:
        ``"none"`` (default) admits every inserted row, evicting LRU rows to
        make room — one large scan can flush the whole working set.
        ``"frequency"`` adds a TinyLFU-style gate: each *requested*
        ``(layer, node)`` feeds a frequency sketch, and once the cache is
        full a new row is admitted only if it has been requested more often
        than the LRU victim it would displace.  Cold one-off rows bounce off
        the gate (counted in ``rejected_admissions``) instead of evicting
        hot ones, which lifts the hit rate under skewed request mixes.

    Notes
    -----
    There is one probe, :meth:`lookup_partial`: every probed ``(layer,
    node)`` is exactly one hit or one miss, so ``hits + misses`` is the
    number of rows probed and ``hits / (hits + misses)`` the hit ratio.  The
    local executor probes each level's nodes through it, a shard worker the
    level's nodes it owns.
    """

    #: total sketch mass that triggers the TinyLFU aging halving — keeps the
    #: sketch a sliding estimate of *recent* frequency and bounds its size.
    FREQ_AGING_THRESHOLD = 100_000

    def __init__(self, capacity_bytes: int, admission: str = "none"):
        self.capacity_bytes = check_positive_int(capacity_bytes, "capacity_bytes")
        if admission not in ("none", "frequency"):
            raise ValueError(
                f"admission must be 'none' or 'frequency', got {admission!r}"
            )
        self.admission = admission
        self.version = 1
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0
        self.rejected_admissions = 0
        self._lock = threading.Lock()
        # (version, layer, node) -> row; byte accounting and LRU eviction
        # (and their counters) are the mapping's.
        self._rows = LRUDict(
            capacity=None, byte_budget=self.capacity_bytes, sizeof=operator.attrgetter("nbytes")
        )
        # Version-independent request-frequency sketch (layer, node) -> count;
        # only maintained when the admission gate is on.
        self._freq: Dict[Tuple[int, int], int] = {}
        self._freq_mass = 0

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
        most-recently-used and counted, and (under the frequency gate) every
        probe feeds the sketch.
        """
        version = self.version
        found_mask = np.zeros(len(node_ids), dtype=bool)
        with self._lock:
            rows = self._rows
            if self.admission == "frequency":
                for node in node_ids:
                    self._record_request(layer, int(node))
            hit_rows = []
            for i, node in enumerate(node_ids):
                key = (version, layer, int(node))
                row = rows.peek(key)
                if row is None:
                    self.misses += 1
                else:
                    rows.touch(key)
                    self.hits += 1
                    found_mask[i] = True
                    hit_rows.append(row)
            if not hit_rows:
                return found_mask, None
            return found_mask, np.stack(hit_rows, axis=0)

    def put(self, layer: int, node_ids: np.ndarray, values: np.ndarray) -> None:
        """Insert ``values[i]`` as layer-``layer`` activation of ``node_ids[i]``.

        Rows are copied (the caller's matrix stays untouched by later
        evictions); already-present rows are refreshed, not re-stored.
        """
        if len(node_ids) != len(values):
            raise ValueError(
                f"node_ids has {len(node_ids)} entries but values has "
                f"{len(values)} rows"
            )
        version = self.version
        gated = self.admission == "frequency"
        with self._lock:
            rows = self._rows
            for node, value in zip(node_ids, values):
                key = (version, layer, int(node))
                if rows.peek(key) is not None:
                    rows.touch(key)
                    continue
                if gated and not self._admit(key, value.nbytes):
                    self.rejected_admissions += 1
                    continue
                rows[key] = np.array(value, copy=True)
                self.insertions += 1

    # ------------------------------------------------------------------ #
    def _record_request(self, layer: int, node: int) -> None:
        """Count one request against the frequency sketch (lock held)."""
        self._freq[(layer, node)] = self._freq.get((layer, node), 0) + 1
        self._freq_mass += 1
        if self._freq_mass >= self.FREQ_AGING_THRESHOLD:
            # TinyLFU aging: halve every count and drop the zeros, so the
            # sketch tracks recent popularity and stays bounded.
            aged = {k: c >> 1 for k, c in self._freq.items() if c >> 1}
            self._freq = aged
            self._freq_mass = sum(aged.values())

    def _admit(self, key: Tuple[int, int, int], nbytes: int) -> bool:
        """Whether a new row may enter a full cache (lock held).

        While there is spare capacity everything is admitted.  At capacity
        the candidate must be *strictly* more requested than the LRU victim
        it would displace — ties keep the incumbent (cheaper, and resists
        one-shot scans whose rows all have count 1).
        """
        if self._rows.current_bytes + nbytes <= self.capacity_bytes or not self._rows:
            return True
        _, victim_layer, victim_node = next(iter(self._rows))
        candidate = self._freq.get((key[1], key[2]), 0)
        victim = self._freq.get((victim_layer, victim_node), 0)
        return candidate > victim

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

    def clear(self) -> None:
        """Drop all rows without advancing the version (e.g. between bench phases)."""
        with self._lock:
            self._rows.clear()

    def stats(self) -> Dict[str, int]:
        """Telemetry snapshot: hit/miss/insert/evict counters and byte usage."""
        with self._lock:
            return {
                "version": self.version,
                "admission": self.admission,
                "hits": self.hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self._rows.evictions,
                "invalidations": self.invalidations,
                "rejected_admissions": self.rejected_admissions,
                "rows": len(self._rows),
                "current_bytes": self._rows.current_bytes,
                "capacity_bytes": self.capacity_bytes,
            }
