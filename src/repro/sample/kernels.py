"""Neighbour-selection kernels over CSC sampling-view slices.

:class:`~repro.graph.in_edges.InEdgeIndex` is the CSC sampling view: per
destination node, a contiguous slice of candidate in-edges in ascending
edge-id order.  This module holds the selection kernels that pick edges out
of those slices.  All of them draw from the same counter-based hash streams
(:func:`repro.utils.seed.hash_u64`), so which kernel runs never changes
*which* edges are selected — only how much work selecting them costs:

``bottomk_sorted``
    The reference without-replacement kernel: hash every candidate edge and
    run one segmented sort over **all** candidates.  O(C log C) in the
    candidate count C — the cost is dominated by neighbours that are about
    to be thrown away when ``fanout`` is small.

``bottomk_bucketed``
    The production without-replacement kernel.  Per segment of degree ``d``
    it keeps only candidates whose 40-bit hash key falls below a threshold
    ``~2k/d`` of the key space (``k`` = fanout), then sorts the survivors.
    The expected survivor count is ``~2k`` per segment, so the sort — the
    super-linear part — scales with the *selected* edges, not the
    candidates.  Segments where the bucket underfills (probability
    ``exp(-Θ(k))`` per segment) escalate to all of their candidates, which
    makes the kernel exact: because every key ``<= t`` sorts before every
    key ``> t`` and ties resolve by ascending candidate position in both
    kernels, the bottom-k of a sufficiently filled bucket *is* the bottom-k
    of the whole segment, bit for bit.

``replacement_draws``
    The with-replacement kernel: ``fanout`` independent per-slot hash draws
    per non-isolated node.  Already O(selected); shared here so both the
    single-machine and distributed samplers use one implementation.

Both bottom-k kernels rank candidates by the top 40 bits of
``hash_u64(edge id, key)`` with truncation ties broken by ascending
candidate position (= ascending edge id), which is the selection contract
the parity tests assert.
"""

from __future__ import annotations

import numpy as np

from repro.graph.in_edges import candidate_positions
from repro.utils.seed import hash_u64, splitmix64

#: Selection compares the top ``64 - _KEY_SHIFT`` = 40 hash bits.  Dropping
#: the low 24 bits leaves headroom to pack a segment id above the key in one
#: uint64 composite sort key (see :func:`segmented_key_order`).
_KEY_SHIFT = 24
_KEY_BITS = 64 - _KEY_SHIFT
_KEY_MAX = np.uint64((1 << _KEY_BITS) - 1)

#: Above this many segments the composite ``(seg << 40) | key`` would
#: overflow 64 bits, so :func:`segmented_key_order` falls back to
#: ``np.lexsort``.  Module-level (not inlined) so tests can lower it and
#: exercise the fallback without materializing 2**24 segments.
_COMPOSITE_SEGMENT_LIMIT = 1 << 24

#: Bucket threshold over-selection factor: a segment of degree ``d`` keeps
#: candidates in the lowest ``_BUCKET_SAFETY * k / d`` fraction of the key
#: space, targeting ``~_BUCKET_SAFETY * k`` expected survivors.  Escalation
#: (bucket underfill) re-admits a segment's *entire* candidate list, so on
#: hub-heavy graphs its expected cost is ``degree * P(underfill)`` — 4 keeps
#: that probability below ~2% at k=1 (vs ~9% at k=2 with a factor of 2) and
#: drives it exponentially small as k grows, while only doubling the sorted
#: survivor count.
_BUCKET_SAFETY = 4

#: Fanouts at or above this make ``_BUCKET_SAFETY * fanout << 40`` overflow
#: uint64 threshold arithmetic (the dispatcher admits ``fanout < limit``, and
#: ``4 * (2**22 - 1) << 40`` is the last product under 2**64); bucketing buys
#: nothing at such fanouts, so they route to the sorted kernel instead.
_BUCKET_FANOUT_LIMIT = 1 << 22


def segmented_key_order(keys: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """Stable order sorting by ``(segment, key)`` with position tie-breaks.

    Selection uses the top 40 hash bits in *both* branches, so the branch
    taken never changes which edges are picked.  Truncation ties fall back
    to ascending candidate position — ascending edge id — which is
    deterministic and identical across any split of the segments over
    workers.
    """
    if num_segments < _COMPOSITE_SEGMENT_LIMIT:
        # One composite-key stable argsort instead of a lexsort (~6x
        # faster): segment in the high 24 bits, the 40 hash bits below.
        composite = (seg.astype(np.uint64) << np.uint64(_KEY_BITS)) | keys
        return np.argsort(composite, kind="stable")
    return np.lexsort((keys, seg))


def _take_bottomk(
    pos: np.ndarray,
    seg: np.ndarray,
    keys: np.ndarray,
    seg_counts: np.ndarray,
    fanout: int,
) -> np.ndarray:
    """Bottom-``fanout`` positions per segment by ``(key, position)`` order."""
    order = segmented_key_order(keys, seg, len(seg_counts))
    offsets = np.zeros(len(seg_counts), dtype=np.int64)
    np.cumsum(seg_counts[:-1], out=offsets[1:])
    rank = np.arange(len(pos), dtype=np.int64) - offsets[seg]
    return pos[order][rank < fanout]


def bottomk_sorted(
    eids: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    fanout: int,
    key: int,
) -> np.ndarray:
    """Reference without-replacement kernel: sort *every* candidate.

    Hashes and sorts all candidates of all segments: the parity reference
    for :func:`bottomk_bucketed`, and the kernel ``sample_in_edges`` runs at
    fanouts too large for bucketing.
    """
    pos, seg = candidate_positions(starts, counts)
    keys = hash_u64(eids[pos], key)
    keys >>= np.uint64(_KEY_SHIFT)
    return _take_bottomk(pos, seg, keys, counts, fanout)


def bottomk_bucketed(
    eids: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    fanout: int,
    key: int,
) -> np.ndarray:
    """Bucketed without-replacement kernel: sort only probable survivors.

    Bit-identical to :func:`bottomk_sorted` (same hash keys, same ordering
    contract) while sorting ``~_BUCKET_SAFETY * fanout`` candidates per
    high-degree segment instead of all of them.
    """
    pos, seg = candidate_positions(starts, counts)
    keys = hash_u64(eids[pos], key)
    keys >>= np.uint64(_KEY_SHIFT)
    num_segments = len(counts)

    # Per-segment key threshold ~ _BUCKET_SAFETY * fanout / degree of the
    # key space.  Segments with degree <= _BUCKET_SAFETY * fanout keep
    # everything (threshold = max key), so only genuinely oversampled
    # segments are filtered.  Expanded per-candidate via ``np.repeat``
    # rather than a ``thresholds[seg]`` gather — repeat streams instead of
    # random-accessing, which matters at millions of candidates.
    thresholds = np.full(num_segments, _KEY_MAX, dtype=np.uint64)
    dense = counts > _BUCKET_SAFETY * fanout
    if dense.any():
        numerator = np.uint64(_BUCKET_SAFETY * fanout) << np.uint64(_KEY_BITS)
        thresholds[dense] = numerator // counts[dense].astype(np.uint64)
    in_bucket = keys <= np.repeat(thresholds, counts)

    # Exactness: a bucket holding >= min(fanout, degree) candidates provably
    # contains the segment's true bottom-k (every key <= threshold precedes
    # every key above it, ties included).  Underfilled segments escalate to
    # their full candidate lists — their bucket count becomes their degree,
    # so the final counts follow from ``have`` without a second bincount.
    need = np.minimum(counts, fanout)
    bucket_seg = seg[in_bucket]
    have = np.bincount(bucket_seg, minlength=num_segments)
    deficient = have < need
    if deficient.any():
        in_bucket |= np.repeat(deficient, counts)
        bucket_seg = seg[in_bucket]
        bucket_counts = np.where(deficient, counts, have)
    else:
        bucket_counts = have
    return _take_bottomk(pos[in_bucket], bucket_seg, keys[in_bucket], bucket_counts, fanout)


def replacement_draws(
    starts: np.ndarray,
    counts: np.ndarray,
    fanout: int,
    key: int,
    key_ids: np.ndarray,
) -> np.ndarray:
    """With-replacement kernel: ``fanout`` hash draws per non-isolated node.

    Each draw is a pure function of ``(key, key_ids[node], slot)``, so any
    partition of the nodes over workers or threads draws the same edges.
    """
    nonzero = counts > 0
    node_hash = hash_u64(key_ids[nonzero], key)
    slots = np.tile(np.arange(fanout, dtype=np.uint64), int(nonzero.sum()))
    draws = hash_u64(np.repeat(node_hash, fanout) + slots, splitmix64(key))
    picks = draws % np.repeat(counts[nonzero].astype(np.uint64), fanout)
    return np.repeat(starts[nonzero], fanout) + picks.astype(np.int64)
