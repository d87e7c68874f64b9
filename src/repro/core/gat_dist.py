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
error exchange.  There is one per-block kernel: with the block's
:class:`~repro.tensor.edge_plan.EdgePlan` every per-edge array lives in the
plan's destination-sorted edge space from the logits to the last segment sum
(:func:`~repro.tensor.sparse.gat_logits_sorted`,
:meth:`RunningSoftmaxAccumulator.add_block_sorted`,
:func:`~repro.tensor.sparse.gat_backward_sorted`), so nothing is permuted between
steps and the SDDMM's gathered operands are cache-blocked; without a plan
(``plans_disabled()``) the same math runs in input edge order over the naive
kernels — the reference the tests compare against.  Execution modes (from
:class:`~repro.core.config.SARConfig` plus the layer's ``fused`` flag):

* vanilla DP (``mode="dp"``): halo feature blocks *and* per-edge attention
  tensors are wrapped in tensors and saved for the backward pass (the memory
  profile of the standard DGL implementation), no backward re-fetch; a
  ``no_grad`` forward saves neither.
  ``fused`` decides what is saved per edge: raw scores and logits
  (``False``, the multi-step dataflow) or the logits alone (``True``);
* SAR (``mode="sar"``): nothing edge-sized survives the forward pass; the
  backward pass re-fetches remote features and rematerializes the per-edge
  quantities block by block.  ``fused`` changes nothing here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import SARConfig
from repro.core.halo import HaloExchange, pack_features, unpack_features
from repro.core.seq_agg import BlockKernel, KernelPass
from repro.core.stable_softmax import RunningSoftmaxAccumulator
from repro.partition.shard import EdgeBlock, ShardedGraph
from repro.tensor.edge_plan import EdgePlan
from repro.tensor.sparse import (
    gat_backward_sorted,
    gat_logits_sorted,
    segment_sum_np,
    u_mul_e_sum_np,
)
from repro.tensor.tensor import Tensor, grad_enabled


# --------------------------------------------------------------------------- #
# per-block logits
# --------------------------------------------------------------------------- #
def _block_logits(score_dst: np.ndarray, score_src_block: np.ndarray,
                  block: EdgeBlock, negative_slope: float,
                  plan: Optional[EdgePlan]) -> Tuple[np.ndarray, np.ndarray]:
    """``(raw, LeakyReLU(raw))`` per edge of the block: in the plan's
    destination-sorted edge space, or in input edge order without a plan."""
    if plan is not None:
        return gat_logits_sorted(plan, score_dst, score_src_block, negative_slope)
    raw = score_dst[block.dst_local] + score_src_block[block.src_index]
    return raw, np.where(raw > 0, raw, negative_slope * raw)


# --------------------------------------------------------------------------- #
# the engine kernel
# --------------------------------------------------------------------------- #
class GATKernel(BlockKernel):
    """Attention-weighted neighbour aggregation across graph partitions.

    The published payload packs ``(z, score_src)`` so peers fetch both in one
    message — the "message is a 2-tuple" of the paper's Eq. 3.  The
    weighted aggregation and its transpose run every head at once through
    the block plan's head-blocked CSR
    (:meth:`~repro.tensor.edge_plan.EdgePlan.u_mul_e_sum_sorted`), built
    once per block and head count, so no pass re-sorts a scipy matrix.
    """

    grad_class = "nonlinear"

    def __init__(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                 shard: ShardedGraph, halo: HaloExchange, config: SARConfig,
                 negative_slope: float, fused: bool):
        super().__init__()
        z_data = z.data
        if z_data.ndim != 3:
            raise ValueError(f"Expected z of shape (N, heads, dim), got {z_data.shape}")
        self.z_data = z_data
        self.sd = score_dst.data
        self.ss = score_src.data
        self.shard = shard
        self.config = config
        self.negative_slope = negative_slope
        self.fused = fused
        self.num_local, self.heads, self.dim = z_data.shape
        self._passes = [KernelPass(name="", blocks=shard.blocks, halo=halo)]
        #: per-edge attention tensors kept alive in vanilla DP mode only, with
        #: the plan whose edge space they are in (``None``: input edge order)
        self._saved_logits: Dict[int, Tuple[Optional[EdgePlan], Tensor]] = {}

    # -- engine interface ------------------------------------------------ #
    def payload(self) -> np.ndarray:
        return pack_features(self.z_data, self.ss)

    def passes(self):
        return self._passes

    def _unpack(self, feats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return unpack_features(feats, [(self.heads, self.dim), (self.heads,)])

    def forward_init(self) -> None:
        self._accumulator = RunningSoftmaxAccumulator(
            self.num_local, self.heads, self.dim, dtype=self.z_data.dtype,
            stable=self.config.stable_softmax,
        )

    def forward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                      feats: np.ndarray) -> None:
        z_q, ss_q = self._unpack(feats)
        plan = block.plan()
        raw, logits = _block_logits(self.sd, ss_q, block, self.negative_slope, plan)
        if self.config.is_domain_parallel and grad_enabled():
            # Vanilla DP materializes per-edge attention tensors in the graph
            # (a no-grad forward records no graph to keep them in).
            saved = Tensor(logits if self.fused else np.stack([raw, logits]))
            self._saved_logits[q] = (plan, saved)
        if plan is not None:
            self._accumulator.add_block_sorted(logits, z_q, plan)
        else:
            self._accumulator.add_block(logits, z_q, block.dst_local, block.src_index)

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
        # Errors for (z, score_src) travel packed, exactly like the payload,
        # so the engine scatters one 2-D target per peer.
        width = self.heads * self.dim + self.heads
        self._grad_packed = np.zeros((self.num_local, width), dtype=grad_out.dtype)
        self._grad_sd = np.zeros((self.num_local, self.heads), dtype=grad_out.dtype)

    def backward_block(self, p: KernelPass, q: int, block: EdgeBlock,
                       feats: Optional[np.ndarray]) -> np.ndarray:
        z_q, ss_q = self._unpack(feats)
        # ---- rematerialize the per-edge attention coefficients ----------- #
        saved = self._saved_logits.get(q)  # filled by vanilla DP's forward only
        if saved is not None:
            plan, stored = saved
            if self.fused:
                raw, logits = None, stored.data
            else:
                raw, logits = stored.data[0], stored.data[1]
        else:
            plan = block.plan()
            raw, logits = _block_logits(self.sd, ss_q, block, self.negative_slope, plan)
        positive = logits > 0 if raw is None else raw > 0
        if plan is not None:
            weights = np.exp(logits - plan.expand_dst(self._safe_max))
            alpha = weights / plan.expand_dst(self.denominator)
            grad_z_q, grad_sd, grad_ss_q = gat_backward_sorted(
                plan, z_q, self._grad_out, alpha, positive, self.negative_slope,
                weighted_sum=self._weighted_sum,
            )
            self._grad_sd += grad_sd
            return pack_features(grad_z_q, grad_ss_q)

        # ---- reference path: input edge order, naive kernels -------------- #
        weights = np.exp(logits - self._safe_max[block.dst_local])
        alpha = weights / self.denominator[block.dst_local]
        grad_z_q = u_mul_e_sum_np(self._grad_out, alpha, block.dst_local,
                                  block.src_index, z_q.shape[0])
        grad_alpha = np.einsum("ehd,ehd->eh", z_q[block.src_index],
                               self._grad_out[block.dst_local])
        grad_logits = alpha * (grad_alpha - self._weighted_sum[block.dst_local])
        grad_raw = np.where(positive, grad_logits, self.negative_slope * grad_logits)
        grad_ss_q = segment_sum_np(grad_raw, block.src_index, z_q.shape[0])
        self._grad_sd += segment_sum_np(grad_raw, block.dst_local, self.num_local)
        return pack_features(grad_z_q, grad_ss_q)

    def error_target(self, p: KernelPass) -> np.ndarray:
        return self._grad_packed

    def backward_finalize(self):
        split = self.heads * self.dim
        grad_z = self._grad_packed[:, :split].reshape(self.num_local, self.heads, self.dim)
        grad_ss = self._grad_packed[:, split:]
        return grad_z, self._grad_sd, grad_ss
