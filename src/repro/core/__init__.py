"""SAR core: the sequential-aggregation engine, pluggable kernels, graph handles.

This package implements the paper's contribution around one central
abstraction:

* :class:`~repro.core.seq_agg.SequentialAggregationEngine` — owns the SAR /
  domain-parallel block loop shared by *every* aggregator: block scheduling,
  halo fetch/retention, the double-buffered halo prefetch (§3.4), the
  backward re-fetch for case-2 aggregators, and the all-to-all error
  exchange.
* :class:`~repro.core.seq_agg.BlockKernel` — the per-aggregator plug-in
  protocol.  Concrete kernels: :class:`~repro.core.sage_dist.MeanKernel`
  (case 1), :class:`~repro.core.sage_dist.PoolingKernel` (max pooling,
  case 2), :class:`~repro.core.gat_dist.GATKernel` (attention, case 2), and
  :class:`~repro.core.rgcn_dist.RGCNKernel` (relational, case 2, one engine
  pass per relation).
* :class:`~repro.core.config.SARConfig` — selects vanilla domain-parallel
  ("dp") or Sequential-Aggregation-and-Rematerialization ("sar") execution
  and communication/compute-overlapping prefetch.
* :class:`~repro.core.dist_graph.DistributedGraph` — the per-worker graph
  handle that unmodified model code consumes, over a homogeneous or a
  relational shard alike; it owns one engine instance that all of its
  aggregation ops route through.
* The running stable softmax (§3.4) and parameter-gradient synchronization.
"""

from repro.core.config import SARConfig, SAR, SAR_PREFETCH, DOMAIN_PARALLEL
from repro.core.dist_graph import DistributedGraph
from repro.core.halo import HaloExchange, pack_features, unpack_features
from repro.core.seq_agg import (
    BlockKernel,
    KernelPass,
    SequentialAggregationEngine,
    block_order,
)
from repro.core.stable_softmax import RunningSoftmaxAccumulator
from repro.core.grad_sync import sync_gradients, broadcast_parameters, parameters_in_sync
from repro.core.sage_dist import MeanKernel, PoolingKernel, make_neighbor_kernel
from repro.core.gat_dist import GATKernel
from repro.core.rgcn_dist import RGCNKernel

__all__ = [
    "SARConfig",
    "SAR",
    "SAR_PREFETCH",
    "DOMAIN_PARALLEL",
    "DistributedGraph",
    "HaloExchange",
    "pack_features",
    "unpack_features",
    "SequentialAggregationEngine",
    "BlockKernel",
    "KernelPass",
    "block_order",
    "RunningSoftmaxAccumulator",
    "sync_gradients",
    "broadcast_parameters",
    "parameters_in_sync",
    "make_neighbor_kernel",
    "MeanKernel",
    "PoolingKernel",
    "GATKernel",
    "RGCNKernel",
]
