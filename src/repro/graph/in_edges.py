"""The per-destination in-edge index: a node set's in-neighbourhoods in O(their degrees).

:class:`InEdgeIndex` buckets an edge list by destination, each bucket in
ascending edge-id order, and :func:`candidate_positions` enumerates the
buckets of a node set.  Together they are the graph-layer primitive under
the samplers (:mod:`repro.sample`), the full-neighbourhood block builder
(:func:`repro.graph.mfg.block_from_in_edges`) and the cached
``Graph.in_edge_index()`` / ``ShardedGraph.in_edge_index()`` accessors,
which return one index per relation, ``{relation: InEdgeIndex}``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class InEdgeIndex:
    """Per-destination in-edge candidate lists, in ascending edge-id order.

    The index stores, bucketed by destination node, the identifiers the
    sampler needs for each candidate in-edge: a stable *edge id* (hashing /
    ordering identity), the edge's source id, and its destination id.  On a
    single machine the id spaces are the graph's own; the distributed path
    builds one index per worker over *local* destination ids with *global*
    edge/source ids, which keeps the hash draws identical to the
    single-machine sampler (see :mod:`repro.sample.distributed`).
    """

    __slots__ = ("num_dst_nodes", "indptr", "eids", "src", "dst")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_dst_nodes: int,
        eids: Optional[np.ndarray] = None,
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ValueError(f"src and dst must have equal length, got {len(src)} and {len(dst)}")
        if eids is None:
            eids = np.arange(len(src), dtype=np.int64)
        else:
            eids = np.asarray(eids, dtype=np.int64)
            if len(eids) != len(src):
                raise ValueError("eids must have one entry per edge")
        # Stable sort by destination keeps each bucket in ascending input
        # position — i.e. ascending edge id when the input is edge-id ordered.
        order = np.argsort(dst, kind="stable")
        self.num_dst_nodes = int(num_dst_nodes)
        self.eids = eids[order]
        self.src = src[order]
        self.dst = dst[order]
        indptr = np.zeros(self.num_dst_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=self.num_dst_nodes), out=indptr[1:])
        self.indptr = indptr

    def degrees(self, nodes: np.ndarray) -> np.ndarray:
        return self.indptr[nodes + 1] - self.indptr[nodes]


def candidate_positions(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All candidate positions for the given CSC slices.

    Returns ``(pos, seg)``: ``pos[i]`` indexes the view's candidate arrays
    and ``seg[i]`` names the segment (node) the candidate belongs to.

    This runs on every candidate edge of every sampled layer, and at
    millions of candidates the cost is memory traffic, not arithmetic.
    ``pos[i] = starts[seg[i]] + (i - offset of segment seg[i])`` is
    therefore computed as ``arange + repeat(starts - offsets, counts)``:
    the per-segment part is folded *before* expansion, replacing two
    per-candidate gathers (and their temporaries) with one ``np.repeat``
    and one in-place add — ~1.6x faster than the naive construction.
    """
    total = int(counts.sum())
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    delta = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=delta[1:])
    np.subtract(starts, delta, out=delta)
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(delta, counts)
    return pos, seg
