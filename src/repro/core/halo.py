"""Halo-exchange bookkeeping shared by SAR and vanilla domain-parallel training.

Two pieces of static information are exchanged once, right after the graph is
sharded (this mirrors the partition-metadata setup phase of DistDGL / the SAR
library, and is tagged ``"setup"`` so epoch-level communication accounting is
unaffected):

* for every peer ``q``: which of *my* local rows ``q`` will need (so that
  gradient contributions arriving from ``q`` during the backward pass can be
  scatter-added without shipping index arrays every iteration);
* nothing else — the forward-direction row indices are already stored in this
  worker's own edge blocks (``EdgeBlock.required_src_local``).

The module also provides small pack/unpack helpers used when a single fetch
has to carry both neighbour features and per-node attention scores (the
"message is a 2-tuple" case of GAT).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.distributed.comm import Communicator
from repro.partition.shard import EdgeBlock
from repro.utils.validation import check_strictly_increasing


class HaloExchange:
    """Static routing information between one worker and its peers."""

    def __init__(self, comm: Communicator, blocks: Sequence[EdgeBlock], name: str):
        self.comm = comm
        self.rank = comm.rank
        self.world_size = comm.world_size
        outgoing = {
            q: blocks[q].required_src_local.astype(np.int64)
            for q in range(self.world_size)
            if q != self.rank
        }
        received = comm.exchange(f"setup/{name}", outgoing, tag="setup")
        #: rows of *this* worker's partition that each peer reads during the
        #: forward pass (and therefore sends errors for during the backward pass)
        #: — each peer's ``required_src_local``, so strictly increasing: the
        #: scatter below relies on the rows being unique.
        self.rows_needed_by_peer: Dict[int, np.ndarray] = {
            peer: check_strictly_increasing(rows.astype(np.int64),
                                            f"rows needed by peer {peer}")
            for peer, rows in received.items()
            if peer != self.rank
        }

    def scatter_add_errors(self, target: np.ndarray,
                           errors: Dict[int, np.ndarray]) -> np.ndarray:
        """Accumulate error blocks received from peers into local rows.

        ``errors[peer]`` must have one row per entry of
        ``rows_needed_by_peer[peer]`` (the compact layout the peer used when
        it fetched those rows).
        """
        for peer, error in errors.items():
            if peer == self.rank:
                continue
            rows = self.rows_needed_by_peer.get(peer)
            if rows is None:
                if error.size:
                    raise RuntimeError(
                        f"Received {error.shape[0]} error rows from peer {peer}, "
                        "but that peer never registered any required rows"
                    )
                continue
            if error.shape[0] != len(rows):
                raise RuntimeError(
                    f"Peer {peer} sent {error.shape[0]} error rows, expected {len(rows)}"
                )
            target[rows] += error
        return target


def pack_features(*arrays: np.ndarray) -> np.ndarray:
    """Concatenate per-node arrays along the feature axis into one 2-D block.

    Each array must have the same number of rows; trailing dimensions are
    flattened.  Used to ship ``(z, attention_score)`` tuples in one fetch.
    """
    rows = arrays[0].shape[0]
    flat = []
    for array in arrays:
        if array.shape[0] != rows:
            raise ValueError("pack_features requires arrays with equal first dimension")
        flat.append(array.reshape(rows, -1))
    return np.concatenate(flat, axis=1)


def unpack_features(packed: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Inverse of :func:`pack_features` given the original trailing shapes."""
    rows = packed.shape[0]
    out: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        width = int(np.prod(shape)) if shape else 1
        chunk = packed[:, offset:offset + width]
        out.append(chunk.reshape((rows,) + tuple(shape)))
        offset += width
    if offset != packed.shape[1]:
        raise ValueError(
            f"unpack_features consumed {offset} columns but packed block has {packed.shape[1]}"
        )
    return out
