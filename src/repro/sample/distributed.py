"""Cooperative distributed neighbour sampling over partitioned graphs.

SAR workers train sampled mini-batches the same way they train full batches:
every worker holds the model replica, the batch's seed set is global, and
each worker executes its partition's share of the work.  Sampling splits
along ownership exactly like aggregation does:

* batches are sliced from the *global* shuffled seed order by the same
  :class:`~repro.sample.loader.MiniBatchDataLoader` a single machine uses
  (every worker derives the identical permutation from the shared sampler
  seed — no coordinator, no broadcast);
* at each layer, every worker draws (with the single machine's
  :func:`~repro.sample.neighbor.draw_layer`) in-edges **only for the
  required destinations it owns** — the in-edges of a worker's own nodes
  are precisely the local metadata its ``G_{p,q}`` blocks are built from,
  read through the shard's cached
  :meth:`~repro.partition.shard.ShardedGraph.in_edge_index` (per relation:
  local destination ids, *global* edge/source ids);
* the newly-required source nodes of every relation are merged with one
  keyed ``allgather`` per layer, giving every worker the next layer's
  global required set;
* :func:`~repro.partition.shard.edge_blocks`, the shards' own cutter, turns
  the sampled edges into per-layer ``{relation: grid}`` of
  :class:`~repro.partition.shard.EdgeBlock` rows the worker's
  :class:`~repro.core.dist_graph.DistributedGraph` prepares
  (``prepare_restriction``) and runs the batch's forward under
  (``restricted``), so the existing halo machinery fetches only the sampled
  sources — mini-batch halo exchanges shrink with the fanout.

Because per-edge / per-node draws are pure hashes of global ids under the
``(seed, epoch, batch, layer)`` key (see :mod:`repro.sample.neighbor`), the
union of the workers' samples is bit-identical to what a single machine
samples for the same batch — the distributed run trains the same mini-batch
sequence as the single-machine run with the same seed.  At every fan-out
``-1`` the union is the full-neighbourhood MFG of the batch
(:func:`repro.graph.mfg.build_mfg_pipeline`) — one such batch over every
train seed is paper Appendix B's restricted epoch — and over every node, the
shard's own block rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.comm import Communicator
from repro.graph.mfg import unique_ranks
from repro.partition.shard import EdgeBlock, ShardedGraph, edge_blocks
from repro.sample.neighbor import FanoutSpec, _layer_key, draw_layer, normalize_fanouts


class DistributedNeighborSampler:
    """One worker's view of the cooperative sampling protocol.

    Built and called like :class:`~repro.sample.neighbor.NeighborSampler` —
    the worker's shard and communicator take the graph's place — so the one
    :class:`~repro.sample.loader.MiniBatchDataLoader` drives it; what
    :meth:`sample` returns is this worker's per-layer block grids instead of
    an MFG pipeline.

    Parameters
    ----------
    shard, comm:
        This worker's :class:`~repro.partition.shard.ShardedGraph` (its
        in-edges, every relation's, are what it samples) and communicator.
    fanouts:
        One entry per conv layer, input → output order, checked as
        ``NeighborSampler`` checks them
        (:func:`~repro.sample.neighbor.normalize_fanouts`).
    replace:
        Sample with replacement (see ``NeighborSampler``).
    seed:
        Base seed of every draw; every worker must pass the same one.
    """

    def __init__(self, shard: ShardedGraph, comm: Communicator,
                 fanouts: Sequence[FanoutSpec], replace: bool = False, seed: int = 0):
        self._indexes = shard.in_edge_index()
        self._fanouts, self.fanouts = normalize_fanouts(fanouts, self._indexes)
        self.replace = bool(replace)
        self.seed = int(seed)
        self.num_nodes = shard.num_total_nodes
        self.book = shard.book
        self.comm = comm
        self.rank = comm.rank
        self._held_key: Optional[str] = None

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    def _frontier_allgather(self, stream_key: str,
                            reached: List[np.ndarray]) -> List[np.ndarray]:
        """One keyed allgather of the unique ids in ``reached``: every rank's
        array, in rank order, releasing the previous payload.

        The frontier merge uses :meth:`Communicator.allgather_keyed` — keyed
        by ``(epoch, batch, layer)``, barrier-free — instead of the plain
        counter-ordered ``allgather``, so the whole protocol may run on a
        background thread while the main thread executes batch b's barrier
        collectives (the worker's loader sampling ahead on its prefetch
        thread, bounded by ``NeighborSamplingConfig.max_resident_batches``).

        Reclamation needs no acknowledgement round-trip: this allgather
        completing means every rank *published* under ``stream_key``, and a
        rank only publishes key i after fully consuming key i-1 — so the
        payload this worker still holds from the previous call is provably
        consumed everywhere and can be released.
        """
        frontier = self.comm.allgather_keyed(
            stream_key, unique_ranks(reached)[0], tag="sample_frontier"
        )
        if self._held_key is not None:
            self.comm.release_keyed(self._held_key)
        self._held_key = stream_key
        return frontier

    def release(self) -> None:
        """Release the final stream payload (call after a barrier, e.g. at
        epoch end, once all ranks are known to have finished sampling)."""
        if self._held_key is not None:
            self.comm.release_keyed(self._held_key)
            self._held_key = None

    def sample(
        self,
        seeds: np.ndarray,
        epoch: int = 0,
        batch_index: int = 0,
    ) -> List[Dict[Optional[str], List[EdgeBlock]]]:
        """Sample one batch; returns this worker's per-layer block grids.

        Parameters
        ----------
        seeds:
            The batch's *global* seed node ids — identical on every worker
            (each derives the same shuffled order from the shared seed).
        epoch, batch_index:
            Select the batch's independent counter-based random stream.

        Returns
        -------
        list of dict of relation to list of EdgeBlock
            Per layer, input → output order, ``{relation: grid}`` with one
            ``world_size``-long :class:`~repro.partition.shard.EdgeBlock` row
            per relation of the shard (``{None: grid}`` on a homogeneous
            graph), ready for
            :meth:`~repro.core.dist_graph.DistributedGraph.prepare_restriction`.
            The union over workers of each layer's and relation's edges is
            bit-identical to the single-machine sample of the same ``(seed,
            epoch, batch)``.

        Notes
        -----
        Collective: every worker must call it with the same global
        ``seeds`` (one keyed allgather per layer merges the frontier).
        Because the per-layer collectives are keyed by ``(epoch, batch,
        layer)`` rather than ordered by a shared counter, the call is safe
        to run on a background thread concurrently with main-thread barrier
        collectives — the overlap the pipelined training loop exploits.
        """
        current, _ = unique_ranks([np.asarray(seeds, dtype=np.int64)])
        layer_edges = [None] * self.num_layers
        for layer in range(self.num_layers - 1, -1, -1):
            owned = current[self.book.assignment[current] == self.rank]
            edges = draw_layer(self._indexes, self.book.to_local(owned)[1],
                               self._fanouts[layer], self.replace,
                               _layer_key(self.seed, epoch, batch_index, layer), key_ids=owned)
            layer_edges[layer] = edges
            # Namespace the collective by (epoch, batch, layer) — the same
            # discipline begin_step uses for step keys — so concurrent batches
            # can never collide even across the overlap boundary.
            stream_key = f"smp/e{epoch}/b{batch_index}/l{layer}"
            frontier = self._frontier_allgather(stream_key, [src for src, _ in edges.values()])
            current, _ = unique_ranks([current] + frontier)
        # The grids keep the draw's edge order.  Their plans sort by
        # (dst, src) and ties are copies of one pair, so they reduce as the
        # single-machine sampled blocks do.
        return [{name: edge_blocks(self.book, self.rank, src, dst)
                 for name, (src, dst) in edges.items()} for edges in layer_edges]
