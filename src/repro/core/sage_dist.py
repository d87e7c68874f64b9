"""GraphSage-style neighbour aggregation kernels (paper §3.2).

Two kernels over the shared :class:`~repro.core.seq_agg.SequentialAggregationEngine`:

* :class:`SumMeanKernel` — SAR "case 1": the aggregation is linear, so the
  gradient of the output w.r.t. the inputs does not depend on the input
  values and SAR needs **no** re-fetch of remote features during the backward
  pass; the error for remote features is computed locally and sent straight
  to its owner.  SAR and vanilla domain-parallel training therefore
  communicate exactly the same volume for these layers.  The payload ``z``
  is whatever :class:`~repro.nn.sage.SageConv` aggregates: the layer input
  ``x`` when the layer does not narrow (it projects the aggregated rows
  afterwards), ``x @ W`` otherwise — so the halo and the error rows are
  ``min(in_features, out_features)`` wide.  A first layer that aggregates
  first publishes the feature matrix itself, which needs no gradient: the
  engine's backward never runs for it and no error is exchanged.
* :class:`PoolingKernel` — element-wise max/min pooling (the GraphSage
  pooling aggregators).  Which source attains the extremum is only known
  given the neighbour *values*, so backpropagation needs them: this is a
  genuine SAR "case 2" workload and the backward pass re-fetches remote
  features, exactly like attention.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.halo import HaloExchange
from repro.core.seq_agg import BlockKernel, KernelPass
from repro.partition.shard import EdgeBlock, ShardedGraph
from repro.tensor.sparse import segment_max_np, segment_min_np
from repro.tensor.tensor import Tensor

SUM_OPS = ("sum", "mean")
POOL_OPS = ("max", "min")


class SumMeanKernel(BlockKernel):
    """``out[i] = Σ_{j ∈ N(i)} z_j`` (optionally divided by the global in-degree)."""

    grad_class = "linear"

    def __init__(self, z: Tensor, shard: ShardedGraph, halo: HaloExchange, op: str):
        super().__init__()
        if op not in SUM_OPS:
            raise ValueError(f"op must be 'sum' or 'mean', got {op!r}")
        data = z.data
        if data.ndim != 2:
            raise ValueError(f"Distributed sum aggregation expects 2-D features, got {data.shape}")
        self.data = data
        self.shard = shard
        self.op = op
        self._passes = [KernelPass(name="", blocks=shard.blocks, halo=halo)]

    # -- engine interface ------------------------------------------------ #
    def payload(self) -> np.ndarray:
        return self.data

    def passes(self):
        return self._passes

    def forward_init(self) -> None:
        self._acc = np.zeros((self.shard.num_local_nodes, self.data.shape[1]),
                             dtype=self.data.dtype)

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: np.ndarray) -> None:
        plan = block.plan()
        if plan is not None:
            self._acc += plan.aggregate_sum(feats)
        else:
            self._acc += block.aggregation_matrix() @ feats

    def forward_finalize(self) -> np.ndarray:
        self.degrees = np.maximum(self.shard.local_in_degrees, 1).astype(self.data.dtype)
        out = self._acc
        del self._acc
        if self.op == "mean":
            out /= self.degrees[:, None]
        return out

    def backward_init(self, grad_out: np.ndarray) -> None:
        # Case 1: the error for a block's source rows is A_{p,q}^T · grad —
        # no remote values are needed, so nothing is re-fetched.
        self._grad = grad_out / self.degrees[:, None] if self.op == "mean" else grad_out
        self._grad_z = np.zeros(self.data.shape, dtype=grad_out.dtype)

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Optional[np.ndarray]) -> np.ndarray:
        plan = block.plan()
        if plan is not None:
            return plan.aggregate_sum_t(self._grad)
        return block.aggregation_matrix(transpose=True) @ self._grad

    def error_target(self, p: KernelPass) -> np.ndarray:
        return self._grad_z

    def backward_finalize(self):
        return (self._grad_z,)


class PoolingKernel(BlockKernel):
    """``out[i] = max_{j ∈ N(i)} z_j`` (element-wise; ``min`` symmetric).

    Nodes with no in-edges aggregate to ``0``.  The backward pass routes each
    output gradient to every source whose value attains the extremum (the
    subgradient convention shared with the single-machine
    :class:`~repro.tensor.sparse.PoolAggregation`), which requires the
    neighbour values — SAR case 2.
    """

    grad_class = "nonlinear"

    def __init__(self, z: Tensor, shard: ShardedGraph, halo: HaloExchange, op: str):
        super().__init__()
        if op not in POOL_OPS:
            raise ValueError(f"op must be 'max' or 'min', got {op!r}")
        data = z.data
        if data.ndim != 2:
            raise ValueError(f"Distributed pooling expects 2-D features, got {data.shape}")
        self.data = data
        self.shard = shard
        self.op = op
        self._passes = [KernelPass(name="", blocks=shard.blocks, halo=halo)]

    # -- engine interface ------------------------------------------------ #
    def payload(self) -> np.ndarray:
        return self.data

    def passes(self):
        return self._passes

    def forward_init(self) -> None:
        fill = -np.inf if self.op == "max" else np.inf
        self._acc = np.full((self.shard.num_local_nodes, self.data.shape[1]), fill,
                            dtype=self.data.dtype)

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: np.ndarray) -> None:
        plan = block.plan()
        if plan is not None:
            if self.op == "max":
                np.maximum(self._acc, plan.aggregate_max(feats), out=self._acc)
            else:
                np.minimum(self._acc, plan.aggregate_min(feats), out=self._acc)
            return
        gathered = feats[block.src_index]
        if self.op == "max":
            reduced = segment_max_np(gathered, block.dst_local, self.shard.num_local_nodes)
            np.maximum(self._acc, reduced, out=self._acc)
        else:
            reduced = segment_min_np(gathered, block.dst_local, self.shard.num_local_nodes)
            np.minimum(self._acc, reduced, out=self._acc)

    def forward_finalize(self) -> np.ndarray:
        acc = self._acc
        del self._acc
        self.out = np.where(np.isfinite(acc), acc, 0.0).astype(self.data.dtype, copy=False)
        return self.out

    def backward_init(self, grad_out: np.ndarray) -> None:
        self._grad_out = grad_out
        self._grad_z = np.zeros(self.data.shape, dtype=grad_out.dtype)

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Optional[np.ndarray]) -> np.ndarray:
        gathered = feats[block.src_index]
        mask = gathered == self.out[block.dst_local]
        contrib = np.where(mask, self._grad_out[block.dst_local], 0.0)
        plan = block.plan()
        if plan is not None:
            return plan.segment_sum_src(contrib).astype(self._grad_out.dtype, copy=False)
        error = np.zeros((block.num_required_src, self.data.shape[1]),
                         dtype=self._grad_out.dtype)
        np.add.at(error, block.src_index, contrib)
        return error

    def error_target(self, p: KernelPass) -> np.ndarray:
        return self._grad_z

    def backward_finalize(self):
        return (self._grad_z,)


def make_neighbor_kernel(z: Tensor, shard: ShardedGraph, halo: HaloExchange,
                         op: str) -> BlockKernel:
    """Pick the kernel implementing aggregation ``op`` ("sum"/"mean"/"max"/"min")."""
    if op in POOL_OPS:
        return PoolingKernel(z, shard, halo, op)
    if op in SUM_OPS:
        return SumMeanKernel(z, shard, halo, op)
    raise ValueError(f"op must be one of {SUM_OPS + POOL_OPS}, got {op!r}")
