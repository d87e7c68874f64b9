"""Distributed attention aggregation (GAT) — SAR "case 2" (paper §3.2, §3.3).

The attention aggregator needs the values of the remote neighbour features to
compute gradients (product-like operator), so SAR must *re-fetch* them during
the backward pass and rematerialize the per-edge attention coefficients block
by block — this is the ~50 % communication overhead over vanilla
domain-parallel training discussed in the paper.  The forward pass aggregates
sequentially with the numerically stable running softmax of §3.4.

:class:`GATKernel` plugs the attention math into the shared
:class:`~repro.core.seq_agg.SequentialAggregationEngine`; the engine owns
block ordering, halo retention, prefetching, the backward re-fetch, and the
error exchange.  There is one per-block kernel: through the block's
:class:`~repro.tensor.edge_plan.EdgePlan` every per-edge array lives in the
plan's destination-sorted edge space from the logits to the last segment sum
(:func:`~repro.tensor.sparse.gat_raw_sorted`,
:meth:`RunningSoftmaxAccumulator.add_block_sorted`,
:func:`~repro.tensor.sparse.gat_backward_sorted`), so nothing is permuted between
steps and the SDDMM's gathered operands are cache-blocked.  Execution modes (from
:class:`~repro.core.config.SARConfig` plus the layer's ``fused`` flag):

* vanilla DP (``mode="dp"``): halo feature blocks *and* per-edge attention
  tensors are wrapped in tensors and saved for the backward pass (the memory
  profile of the standard DGL implementation), no backward re-fetch; a
  ``no_grad`` forward saves neither.
  ``fused`` decides what is saved per edge: raw scores and logits
  (``False``) or the raw scores alone (``True``, the backward re-derives
  the logits and the LeakyReLU mask from them) — the same meaning it has
  for the single-machine :class:`~repro.tensor.sparse.GATAggregation`;
* SAR (``mode="sar"``): nothing edge-sized survives the forward pass; the
  backward pass re-fetches remote features and rematerializes the per-edge
  quantities block by block.  ``fused`` changes nothing here.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.config import SARConfig
from repro.core.halo import HaloExchange, pack_features, unpack_features
from repro.core.seq_agg import BlockKernel, KernelPass
from repro.core.stable_softmax import RunningSoftmaxAccumulator
from repro.partition.shard import EdgeBlock, ShardedGraph
from repro.tensor.sparse import (check_scores, gat_backward_sorted, gat_raw_sorted,
                                 leaky_relu_np)
from repro.tensor.tensor import Tensor, grad_enabled


# --------------------------------------------------------------------------- #
# the engine kernel
# --------------------------------------------------------------------------- #
class GATKernel(BlockKernel):
    """Attention-weighted neighbour aggregation across graph partitions.

    The payload is the pair ``(z, score_src)`` — the "message is a 2-tuple"
    of the paper's Eq. 3 — published as the arrays themselves, not packed
    into a copy, so the kernels read contiguous ``z`` rows; the errors travel
    packed, one array per peer.  The weighted aggregation and its transpose
    run every head at once through the block plan's head-blocked CSR
    (:meth:`~repro.tensor.edge_plan.EdgePlan.u_mul_e_sum_sorted`), built
    once per block and head count, so no pass re-sorts a scipy matrix.
    """

    grad_class = "nonlinear"

    def __init__(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                 shard: ShardedGraph, halo: HaloExchange, config: SARConfig,
                 fused: bool):
        super().__init__()
        z_data = z.data
        if z_data.ndim != 3:
            raise ValueError(f"Expected z of shape (N, heads, dim), got {z_data.shape}")
        self.num_local, self.heads, self.dim = z_data.shape
        check_scores("score_dst", score_dst.data, self.num_local, self.heads)
        check_scores("score_src", score_src.data, self.num_local, self.heads)
        self.z_data = z_data
        self.sd = score_dst.data
        self.ss = score_src.data
        self.shard = shard
        self.config = config
        self.fused = fused
        self._passes = [KernelPass(name="", blocks=shard.blocks, halo=halo)]
        #: per-edge attention tensors (in the block plan's sorted edge space)
        #: kept alive in vanilla DP mode only
        self._saved_logits: Dict[int, Tensor] = {}

    # -- engine interface ------------------------------------------------ #
    def payload(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.z_data, self.ss

    def passes(self):
        return self._passes

    def forward_init(self) -> None:
        self._accumulator = RunningSoftmaxAccumulator(
            self.num_local, self.heads, self.dim, dtype=self.z_data.dtype)

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: Tuple[np.ndarray, np.ndarray]) -> None:
        z_q, ss_q = feats
        plan = block.plan()
        raw = gat_raw_sorted(plan, self.sd, ss_q)
        # Vanilla DP materializes per-edge attention tensors in the graph (a
        # no-grad forward records no graph to keep them in); otherwise the
        # logits overwrite the raw scores.
        save = self.config.is_domain_parallel and grad_enabled()
        logits = leaky_relu_np(raw, out=None if save else raw)
        if save:
            self._saved_logits[q] = Tensor(raw if self.fused else np.stack([raw, logits]))
        self._accumulator.add_block_sorted(logits, z_q, plan)

    def forward_finalize(self) -> np.ndarray:
        self.out = self._accumulator.finalize()
        self.running_max, self.denominator = self._accumulator.state()
        del self._accumulator
        return self.out

    def backward_init(self, grad_out: np.ndarray) -> None:
        self._grad_out = grad_out
        self._safe_max = np.where(np.isfinite(self.running_max), self.running_max, 0.0)
        # Softmax backward needs Σ_j α_j <z_j, grad_i> per destination node; by
        # linearity that equals <out_i, grad_i>, so no extra pass over edges.
        self._weighted_sum = np.einsum("nhd,nhd->nh", self.out, grad_out)
        # Errors for (z, score_src) travel packed, so the engine exchanges
        # one array per peer and scatters into one 2-D target.
        width = self.heads * self.dim + self.heads
        self._grad_packed = np.zeros((self.num_local, width), dtype=grad_out.dtype)
        self._grad_sd = np.zeros((self.num_local, self.heads), dtype=grad_out.dtype)

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        z_q, ss_q = feats
        plan = block.plan()
        # ---- rematerialize the per-edge attention coefficients ----------- #
        # One (E, H) buffer goes logits → weights → α; the raw scores live
        # only until their sign mask exists.
        saved = self._saved_logits.get(q)  # filled by vanilla DP's forward only
        if saved is None:
            alpha = gat_raw_sorted(plan, self.sd, ss_q)
            positive = alpha > 0
            leaky_relu_np(alpha, out=alpha)
        elif self.fused:
            positive = saved.data > 0
            alpha = leaky_relu_np(saved.data)
        else:
            positive = saved.data[0] > 0
            alpha = saved.data[1].copy()
        np.subtract(alpha, plan.expand_dst(self._safe_max), out=alpha)
        np.exp(alpha, out=alpha)
        np.divide(alpha, plan.expand_dst(self.denominator), out=alpha)
        grad_z_q, grad_sd, grad_ss_q = gat_backward_sorted(
            plan, z_q, self._grad_out, alpha, positive, weighted_sum=self._weighted_sum,
        )
        self._grad_sd += grad_sd
        return pack_features(grad_z_q, grad_ss_q)

    def error_target(self, p: KernelPass) -> np.ndarray:
        return self._grad_packed

    def backward_finalize(self):
        grad_z, grad_ss = unpack_features(self._grad_packed,
                                          [(self.heads, self.dim), (self.heads,)])
        return grad_z, self._grad_sd, grad_ss
