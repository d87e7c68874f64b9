"""Distributed relational (R-GCN) aggregation — SAR "case 2" (paper Appendix A).

The R-GCN aggregator applies a *learnable* relation-specific weight ``W_r``
to neighbour features inside the aggregation, so backpropagating to ``W_r``
requires the neighbour feature values.  As with GAT, SAR therefore re-fetches
remote features during the backward pass, while vanilla domain-parallel
training keeps every fetched halo block alive from the forward pass instead.

:class:`RGCNKernel` expresses this over the shared
:class:`~repro.core.seq_agg.SequentialAggregationEngine` as one engine *pass*
per relation: every relation has its own edge-block grid, halo routing, and
error exchange, while the features are published once and shared by all
passes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.halo import HaloExchange
from repro.core.seq_agg import BlockKernel, KernelPass
from repro.partition.shard import EdgeBlock, ShardedHeteroGraph
from repro.tensor.tensor import Tensor


class RGCNKernel(BlockKernel):
    """``out[i] = Σ_r (1/|N_r(i)|) Σ_{j ∈ N_r(i)} W_r x_j`` across partitions."""

    grad_class = "nonlinear"

    def __init__(self, x: Tensor, relation_weights: Tensor, shard: ShardedHeteroGraph,
                 halos: Dict[str, HaloExchange], relation_names: Sequence[str],
                 in_features: int, out_features: int):
        super().__init__()
        data = x.data
        if data.shape[1] != in_features:
            raise ValueError(
                f"Input features have width {data.shape[1]}, layer expects {in_features}"
            )
        weights = relation_weights.data
        if weights.shape != (len(relation_names), in_features * out_features):
            raise ValueError(
                "relation_weights must have shape (num_relations, in_features * out_features), "
                f"got {weights.shape}"
            )
        self.data = data
        self.weights = weights
        self.shard = shard
        self.in_features = in_features
        self.out_features = out_features
        self._passes = [
            KernelPass(name=relation, blocks=shard.relation_blocks[relation],
                       halo=halos[relation], index=r_index)
            for r_index, relation in enumerate(relation_names)
        ]

    # -- engine interface ------------------------------------------------ #
    def payload(self) -> np.ndarray:
        return self.data

    def passes(self):
        return self._passes

    def forward_init(self) -> None:
        self._acc = np.zeros((self.shard.num_local_nodes, self.out_features),
                             dtype=self.data.dtype)

    def begin_pass(self, p: KernelPass, backward: bool) -> None:
        self._w_r = self.weights[p.index].reshape(self.in_features, self.out_features)
        degrees = np.maximum(self.shard.relation_in_degrees[p.name], 1)
        if backward:
            self._grad_scaled = self._grad_out / degrees.astype(self._grad_out.dtype)[:, None]
        else:
            self._degrees = degrees.astype(self.data.dtype)
            self._relation_acc = np.zeros_like(self._acc)

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: np.ndarray) -> None:
        plan = block.plan()
        if plan is not None:
            self._relation_acc += plan.aggregate_sum(feats @ self._w_r)
        else:
            self._relation_acc += block.aggregation_matrix() @ (feats @ self._w_r)

    def end_pass(self, p: KernelPass, backward: bool) -> None:
        if not backward:
            self._acc += self._relation_acc / self._degrees[:, None]

    def forward_finalize(self) -> np.ndarray:
        out = self._acc
        del self._acc, self._relation_acc, self._degrees
        return out

    def backward_init(self, grad_out: np.ndarray) -> None:
        self._grad_out = grad_out
        self._grad_x = np.zeros(self.data.shape, dtype=grad_out.dtype)
        self._grad_weights = np.zeros(self.weights.shape, dtype=np.float32)

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Optional[np.ndarray]) -> np.ndarray:
        plan = block.plan()
        if plan is not None:
            grad_z = plan.aggregate_sum_t(self._grad_scaled)
        else:
            grad_z = block.aggregation_matrix(transpose=True) @ self._grad_scaled
        # dW_r needs the (possibly re-fetched) neighbour feature values.
        self._grad_weights[p.index] += (feats.T @ grad_z).reshape(-1)
        return grad_z @ self._w_r.T

    def error_target(self, p: KernelPass) -> np.ndarray:
        return self._grad_x

    def backward_finalize(self):
        return self._grad_x, self._grad_weights
