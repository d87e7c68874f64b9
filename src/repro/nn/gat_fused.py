"""Fused attention kernels for GAT (paper §3.3).

The standard GAT implementation materializes the per-edge attention logits
and the normalized attention coefficients as ``(E, H)`` tensors, writes them
to memory in the forward pass, and reads them back in the backward pass.
The fused kernel computes attention coefficients *on the fly* while
aggregating neighbour features:

* forward: one pass over the edges that simultaneously computes the stable
  softmax statistics and the weighted feature sums; nothing edge-sized is
  saved for backward (only the node-level inputs, which autograd keeps alive
  anyway).
* backward: the attention coefficients are *recomputed* from the saved
  node-level projections and then used to push gradients to the neighbour
  features and attention scores.

This trades extra backward compute (growing with the number of heads) for a
much smaller forward-pass memory footprint — exactly the trade-off shown in
the paper's Figure 2 — and synergizes with SAR, which has to rematerialize
these intermediates during the backward pass anyway.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.mfg import MFGBlock
from repro.nn.gat import GATBase
from repro.tensor.edge_plan import EdgePlan
from repro.tensor.sparse import (
    gat_backward_sorted,
    gat_logits_sorted,
    segment_max_np,
    segment_sum_np,
    u_mul_e_sum_np,
)
from repro.tensor.tensor import Function, Tensor

_TINY = np.finfo(np.float32).tiny


def _softmax_terms_sorted(plan: EdgePlan, score_dst: np.ndarray, score_src: np.ndarray,
                          negative_slope: float):
    """``(raw, exp(logits − max), Σ exp)`` of the whole edge set, per-edge
    arrays in ``plan``'s destination-sorted edge space — the one-block case
    of the SAR attention kernel (:class:`repro.core.gat_dist.GATKernel`)."""
    raw, logits = gat_logits_sorted(plan, score_dst, score_src, negative_slope)
    maxes = plan.segment_max_sorted(logits)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    weights = np.exp(logits - plan.expand_dst(maxes))
    denom = np.maximum(plan.segment_sum_sorted(weights), _TINY)
    return raw, weights, denom


def fused_gat_forward_np(z: np.ndarray, score_dst: np.ndarray, score_src: np.ndarray,
                         src: np.ndarray, dst: np.ndarray, num_nodes: int,
                         negative_slope: float,
                         plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Single-pass attention aggregation (no per-edge tensor survives the call)."""
    if plan is not None:
        _, weights, denom = _softmax_terms_sorted(plan, score_dst, score_src,
                                                  negative_slope)
        return plan.u_mul_e_sum_sorted(z, weights) / denom[:, :, None]
    raw = score_dst[dst] + score_src[src]
    logits = np.where(raw > 0, raw, negative_slope * raw)
    maxes = segment_max_np(logits, dst, num_nodes)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    weights = np.exp(logits - maxes[dst])
    denom = np.maximum(segment_sum_np(weights, dst, num_nodes), _TINY)
    return u_mul_e_sum_np(z, weights, src, dst, num_nodes) / denom[:, :, None]


def fused_gat_backward_np(grad_out: np.ndarray, z: np.ndarray, score_dst: np.ndarray,
                          score_src: np.ndarray, src: np.ndarray, dst: np.ndarray,
                          num_nodes: int, negative_slope: float,
                          plan: Optional[EdgePlan] = None
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute attention coefficients and backpropagate through the aggregation."""
    # Rematerialize the attention coefficients (the extra compute of the fused kernel).
    if plan is not None:
        raw, weights, denom = _softmax_terms_sorted(plan, score_dst, score_src,
                                                    negative_slope)
        alpha = weights / plan.expand_dst(denom)
        grad_z, grad_score_dst, grad_score_src = gat_backward_sorted(
            plan, z, grad_out, alpha, raw > 0, negative_slope
        )
        return (grad_z, grad_score_dst.astype(score_dst.dtype),
                grad_score_src.astype(score_src.dtype))
    raw = score_dst[dst] + score_src[src]
    logits = np.where(raw > 0, raw, negative_slope * raw)
    maxes = segment_max_np(logits, dst, num_nodes)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    weights = np.exp(logits - maxes[dst])
    denom = np.maximum(segment_sum_np(weights, dst, num_nodes), _TINY)
    alpha = weights / denom[dst]

    # Gradient w.r.t. z: transpose-aggregate the output gradient with weights alpha.
    grad_z = u_mul_e_sum_np(grad_out, alpha, dst, src, z.shape[0])
    # Gradient w.r.t. the normalized coefficients, then through the softmax.
    grad_alpha = np.einsum("ehd,ehd->eh", z[src], grad_out[dst])
    weighted = segment_sum_np(alpha * grad_alpha, dst, num_nodes)
    grad_logits = alpha * (grad_alpha - weighted[dst])
    grad_raw = np.where(raw > 0, grad_logits, negative_slope * grad_logits)
    # Source rows are counted separately: on a compacted MFG block the
    # source row space is larger than the destination row space.
    grad_score_dst = segment_sum_np(grad_raw, dst, num_nodes).astype(score_dst.dtype)
    grad_score_src = segment_sum_np(grad_raw, src, z.shape[0]).astype(score_src.dtype)
    return grad_z, grad_score_dst, grad_score_src


class FusedGATAggregation(Function):
    """Autograd wrapper around the fused forward/backward kernels."""

    def forward(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                src: np.ndarray, dst: np.ndarray, num_nodes: int,
                negative_slope: float, plan: Optional[EdgePlan] = None) -> np.ndarray:
        out = fused_gat_forward_np(
            z.data, score_dst.data, score_src.data, src, dst, num_nodes,
            negative_slope, plan=plan
        )
        # Only node-level arrays are saved; per-edge intermediates are recomputed.
        self.save_for_backward(z.data, score_dst.data, score_src.data, src, dst,
                               num_nodes, negative_slope, plan)
        return out

    def backward(self, grad_out):
        z, score_dst, score_src, src, dst, num_nodes, negative_slope, plan = self.saved
        return fused_gat_backward_np(
            grad_out, z, score_dst, score_src, src, dst, num_nodes, negative_slope,
            plan=plan
        )


class FusedGATConv(GATBase):
    """GAT layer using the fused attention kernel (same parameters as :class:`GATConv`)."""

    #: Distributed graph handles read this flag to select the fused kernel path.
    uses_fused_kernel = True

    def forward(self, graph, x: Tensor) -> Tensor:
        """Apply the layer on a :class:`Graph` or a distributed graph handle."""
        if x.shape[0] != graph.num_nodes:
            raise ValueError(
                f"Feature matrix has {x.shape[0]} rows but graph has {graph.num_nodes} nodes"
            )
        z, score_dst, score_src = self.project(x)
        if isinstance(graph, (Graph, MFGBlock)):
            if isinstance(graph, MFGBlock):
                num_dst = graph.num_dst_nodes
                score_dst = graph.gather_dst(score_dst)
            else:
                num_dst = graph.num_nodes
            aggregated = FusedGATAggregation.apply(
                z, score_dst, score_src, graph.src, graph.dst, num_dst,
                self.negative_slope, graph.plan(),
            )
        else:
            aggregated = graph.gat_aggregate(
                z, score_dst, score_src,
                negative_slope=self.negative_slope,
                fused=True,
            )
        return self.finalize(aggregated)

    def __repr__(self) -> str:
        return (
            f"FusedGATConv(in={self.in_features}, out={self.out_features}, "
            f"heads={self.num_heads})"
        )
