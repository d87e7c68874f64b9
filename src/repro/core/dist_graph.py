"""The distributed graph handle.

A :class:`DistributedGraph` is the object a worker passes to unmodified model
code in place of a regular :class:`~repro.graph.graph.Graph`, homogeneous or
relational: it speaks the same aggregation
protocol (:mod:`repro.graph.aggregation`), and runs each aggregation through
the SAR / domain-parallel machinery.  This mirrors how the SAR library swaps
DGL's graph for a ``GraphShardManager`` while the model definition stays
untouched.

Each handle owns:

* the worker's :class:`~repro.partition.shard.ShardedGraph` (local vertices,
  one ``G_{p,q}`` edge-block grid per relation — the one relation ``None``
  for a homogeneous graph — and local slices of node data),
* the communicator,
* the :class:`~repro.core.config.SARConfig` execution mode,
* a shared :class:`~repro.core.seq_agg.SequentialAggregationEngine` that all
  of the handle's aggregation ops (SAGE mean/max, GAT, R-GCN) run
  through,
* the one-time halo routing information, one
  :class:`~repro.core.halo.HaloExchange` per relation, and
* a per-step operation counter that generates identical publish/fetch keys on
  every worker (the models are replicas, so the op sequence is identical).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SARConfig, SAR
from repro.core.gat_dist import GATKernel
from repro.core.halo import HaloExchange
from repro.core.rgcn_dist import RGCNKernel
from repro.core.sage_dist import make_neighbor_kernel
from repro.core.seq_agg import SequentialAggregationEngine
from repro.distributed.comm import Communicator
from repro.graph.aggregation import relation_entry
from repro.partition.shard import EdgeBlock, ShardedGraph
from repro.tensor.tensor import Tensor

#: one :class:`~repro.core.halo.HaloExchange` per relation of a block grid.
Halos = Dict[Optional[str], HaloExchange]
#: what :meth:`DistributedGraph.prepare_restriction` returns: one
#: ``(restricted shard view, halos)`` pair per conv layer.
RestrictionLayers = List[Tuple[ShardedGraph, Halos]]


def _make_halos(comm: Communicator, grids: Mapping[Optional[str], List[EdgeBlock]],
                prefix: str = "") -> Halos:
    """One halo routing exchange per relation (collective)."""
    return {relation: HaloExchange(comm, blocks, prefix + (
        "homo" if relation is None else f"rel-{relation}")) for relation, blocks in grids.items()}


class DistributedGraph:
    """Worker-local handle over a partitioned graph.

    ``aggregate_neighbors`` and ``gat_aggregate`` run over the shard's
    relation ``None``, ``rgcn_aggregate`` over its named relations, each
    looked up by :func:`~repro.graph.aggregation.relation_entry`.
    """

    def __init__(self, shard: ShardedGraph, comm: Communicator,
                 config: SARConfig = SAR):
        self.shard = shard
        self.comm = comm
        self.config = config
        #: the sequential-aggregation engine every layer's aggregation runs
        #: through; owns block scheduling, retention, prefetch, and the error
        #: exchange for all kernels.
        self.engine = SequentialAggregationEngine(comm, config)
        self._step = 0
        self._op_counter = 0
        self.halos: Halos = _make_halos(comm, shard.relation_blocks)
        #: the per-conv-layer ``(restricted shard view, halos)`` pairs the
        #: enclosing :meth:`restricted` scope put in force (``None`` =
        #: unrestricted), and how many of them this step has consumed.
        self._restriction: Optional[RestrictionLayers] = None
        self._cursor = 0

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def num_nodes(self) -> int:
        """Number of *local* nodes (the rows of this worker's feature matrix)."""
        return self.shard.num_local_nodes

    @property
    def num_total_nodes(self) -> int:
        return self.shard.num_total_nodes

    @property
    def global_node_ids(self) -> np.ndarray:
        return self.shard.global_node_ids

    def begin_step(self) -> None:
        """Start a new training/inference iteration (collective call).

        Clears the previous iteration's published tensors and advances the
        key namespace so stale data can never be fetched by a faster worker.
        """
        self.comm.barrier()
        self.comm.clear_published()
        self._step += 1
        self._op_counter = 0
        self._cursor = 0

    def _next_key(self, name: str) -> str:
        self._op_counter += 1
        return f"s{self._step}/{name}{self._op_counter}"

    def gather_dst(self, x):
        """The protocol's self-row map: every local row is an output row."""
        return x

    def __repr__(self) -> str:
        return (
            f"DistributedGraph(rank={self.rank}/{self.comm.world_size}, mode={self.config.mode!r}, "
            f"local_nodes={self.num_nodes}, halo={self.shard.halo_size}, "
            f"relations={list(self.halos)})"
        )

    # -- scoped restriction (paper Appendix B, executed) ------------------- #
    def prepare_restriction(self, layer_grids: Sequence[Mapping[Optional[str], List[EdgeBlock]]],
                            name: str = "smp") -> RestrictionLayers:
        """Prepare per-conv-layer substitute block grids (collective call).

        The one way a restriction comes into being: sampled training hands
        over each batch's grids from :meth:`repro.sample.distributed.
        DistributedNeighborSampler.sample`, at every fan-out ``-1`` the
        batch's full-neighbourhood MFG (paper Appendix B).  Each layer's view
        recounts every relation's in-degrees from its grid, so mean
        aggregation divides by the sampled degree, which on a
        full-neighbourhood grid is the global one.  Evaluation needs none:
        the unrestricted SAR forward already keeps one remote block resident
        at a time.  Nothing is installed: the returned ``(restricted shard
        view, halos)`` pairs take effect only inside ``with
        self.restricted(layers):``, where conv layer ``l``'s aggregation,
        R-GCN's included, runs over ``layer_grids[l]``: halo fetches (and the
        backward error exchange) shrink to the rows those edges touch, while
        local feature matrices keep their full ``(num_local_nodes, F)``
        height and the replicated model code is untouched.

        Parameters
        ----------
        layer_grids:
            Per conv layer, input → output order, one ``world_size``-long
            :class:`~repro.partition.shard.EdgeBlock` row per relation of the
            shard, ``{relation: grid}``; the step's ``l``-th aggregation is
            dispatched onto ``layer_grids[l]`` (the replicas issue
            aggregations in identical order, so no layer ids need to travel
            with the tensors).
        name:
            Key prefix namespacing the per-layer, per-relation
            :class:`~repro.core.halo.HaloExchange` routing exchanges.

        Notes
        -----
        Collective: every worker must call this at the same point with grids
        describing the same global edge set — each restricted layer performs
        one halo-routing exchange per relation.  Entering the result is
        local, so a prepared restriction can be re-entered for free.
        """
        return [(self.shard.with_blocks(grids), _make_halos(self.comm, grids, f"{name}{layer}-"))
                for layer, grids in enumerate(layer_grids)]

    @contextmanager
    def restricted(self, layers: Optional[RestrictionLayers]) -> Iterator[None]:
        """Run the enclosed aggregations over ``layers`` (local-only call).

        ``layers`` comes from :meth:`prepare_restriction`; ``None`` means
        unrestricted — full-graph rows even inside an outer scope.  The layer
        cursor is reset on entry and on exit, and whatever was in force
        before is put back on exit, exceptions included, so scopes nest: an
        unrestricted forward inside a restricted scope scores every row and
        leaves the outer layers in force.  No collective work happens here, but
        all workers must agree on *which* layers are in force (the usual
        replicated-control-flow discipline), since the halos' per-step
        fetches are collective.
        """
        outer = self._restriction
        self._restriction, self._cursor = layers, 0
        try:
            yield
        finally:
            self._restriction, self._cursor = outer, 0

    def _layer_context(self, what: str) -> Tuple[ShardedGraph, Halos]:
        """The (shard, halos) pair the next aggregation runs over.

        Inside a :meth:`restricted` scope, aggregations are dispatched to the
        scope's layers in call order — the models are replicas, so conv layer
        ``l`` issues the step's ``l``-th aggregation on every worker.
        """
        if self._restriction is None:
            return self.shard, self.halos
        layer = self._cursor
        if layer >= len(self._restriction):
            raise RuntimeError(
                f"restriction has {len(self._restriction)} conv layers but the "
                f"model issued a {layer + 1}th aggregation ({what}) this step"
            )
        self._cursor += 1
        return self._restriction[layer]

    # -- aggregation entry points (called by the nn layers) -------------- #
    def aggregate_neighbors(self, z: Tensor, op: str = "mean") -> Tensor:
        """Neighbour aggregation over the full (distributed) neighbourhood.

        ``op`` is ``"mean"`` (linear, SAR case 1) or ``"max"`` (pooling, SAR
        case 2: the backward pass re-fetches remote features to locate the
        maximal sources).
        """
        shard, halos = self._layer_context("sage")
        kernel = make_neighbor_kernel(z, shard, relation_entry(halos, None), op)
        return self.engine.aggregate(kernel, self._next_key("sage"), z)

    def gat_aggregate(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                      fused: bool = False) -> Tensor:
        """Attention aggregation over the full (distributed) neighbourhood (case 2)."""
        shard, halos = self._layer_context("gat")
        kernel = GATKernel(z, score_dst, score_src, shard, relation_entry(halos, None),
                           self.config, fused)
        return self.engine.aggregate(kernel, self._next_key("gat"),
                                     z, score_dst, score_src)

    def rgcn_aggregate(self, x: Tensor, relation_weights: Tensor,
                       relation_names: Sequence[str], in_features: int,
                       out_features: int) -> Tensor:
        """Relational aggregation over the full (distributed) neighbourhood (case 2)."""
        shard, halos = self._layer_context("rgcn")
        halos = [relation_entry(halos, relation) for relation in relation_names]
        kernel = RGCNKernel(x, relation_weights, shard, halos,
                            relation_names, in_features, out_features)
        return self.engine.aggregate(kernel, self._next_key("rgcn"),
                                     x, relation_weights)

    # -- non-learnable propagation (Correct & Smooth) --------------------- #
    def propagate(self, values: np.ndarray) -> np.ndarray:
        """One round of symmetric-normalized propagation (no autograd).

        Used by Correct & Smooth, which the paper implements "within the same
        framework as SAR" because it is the same kind of neighbourhood
        aggregation, just without trainable parameters or a backward pass.
        Computes :math:`D^{-1/2} A D^{-1/2}` ``values`` with global degrees,
        ``A`` summing every relation's edges — the single-machine
        :meth:`Graph.adjacency <repro.graph.graph.Graph.adjacency>` over the
        graph's ``src``/``dst`` union.
        """
        key = self._next_key("prop")
        values = np.asarray(values, dtype=np.float32)
        scaled = values / np.sqrt(np.maximum(self._global_out_degrees(), 1.0))[:, None]
        self.comm.publish(f"{key}/v", scaled)
        acc = np.zeros((self.num_nodes, values.shape[1]), dtype=np.float32)
        for blocks in self.shard.relation_blocks.values():
            for q, block in enumerate(blocks):
                if block.num_edges == 0:
                    continue
                if q == self.rank:
                    feats = scaled[block.required_src_local]
                else:
                    feats = self.comm.fetch(q, f"{key}/v", rows=block.required_src_local,
                                            tag="propagate")
                acc += block.plan().aggregate_sum(feats)
        degrees = sum(self.shard.relation_in_degrees.values())
        acc /= np.sqrt(np.maximum(degrees, 1).astype(np.float32))[:, None]
        self.comm.barrier()
        return acc

    def _global_out_degrees(self) -> np.ndarray:
        """Global out-degree of each local node over every relation (cached;
        one exchange per relation)."""
        cached = getattr(self, "_out_degree_cache", None)
        if cached is not None:
            return cached
        # Each edge s→d contributes to s's out-degree; the owner of d knows the
        # edge, so workers exchange per-source counts for remote sources.
        local_counts = np.zeros(self.num_nodes, dtype=np.float64)
        for relation, blocks in self.shard.relation_blocks.items():
            outgoing: Dict[int, np.ndarray] = {}
            for q, block in enumerate(blocks):
                if block.num_edges == 0:
                    continue
                counts = np.bincount(block.src_index,
                                     minlength=block.num_required_src).astype(np.float64)
                if q == self.rank:
                    local_counts[block.required_src_local] += counts
                else:
                    outgoing[q] = counts
            received = self.comm.exchange(f"setup/out_degrees/{relation}", outgoing,
                                          tag="setup")
            self.halos[relation].scatter_add_errors(
                local_counts[:, None], {p: v[:, None] for p, v in received.items()})
        self._out_degree_cache = local_counts
        return local_counts
