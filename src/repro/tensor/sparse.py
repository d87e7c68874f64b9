"""Differentiable sparse / segment operations used for message passing.

These are the library's equivalents of DGL's SpMM / SDDMM / edge-softmax
kernels.  Graph structure (edge endpoints) is always treated as
non-differentiable; gradients only flow through dense feature and
edge-weight tensors.

Every op takes the :class:`~repro.tensor.edge_plan.EdgePlan` of its edge set
— built once, obtained from the owning graph (``Graph.plan()``,
``MFGBlock.plan()``, ``EdgeBlock.plan()``, …) — and runs on the plan's cached
sort/CSR structures, so no call re-derives sparsity.

Plain NumPy helpers (suffixed ``_np`` or ``_sorted``) are exposed as well
because SAR's sequential aggregation (Algorithm 1) runs the same math
*outside* the autograd graph and rematerializes it manually in the backward
pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.edge_plan import EdgePlan
from repro.tensor.tensor import Function, Tensor

_TINY = np.finfo(np.float32).tiny

# --------------------------------------------------------------------------- #
# non-differentiable NumPy helpers
# --------------------------------------------------------------------------- #


def leaky_relu_np(raw: np.ndarray, negative_slope: float) -> np.ndarray:
    """LeakyReLU of a plain array.  For ``0 < slope ≤ 1`` it is
    ``max(raw, slope·raw)`` — one pass, no mask, same bits as the select
    (slope 0 is left to the select: ``0·inf`` is NaN, which ``max`` keeps)."""
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(raw, negative_slope * raw)
    return np.where(raw > 0, raw, negative_slope * raw)


def leaky_relu_grad_np(grad: np.ndarray, positive: np.ndarray,
                       negative_slope: float) -> np.ndarray:
    """``grad`` where ``positive``, ``slope·grad`` elsewhere; for
    ``0 ≤ slope ≤ 1`` as a product with the factor ``max(positive, slope)``."""
    if 0.0 <= negative_slope <= 1.0:
        return grad * np.maximum(positive, grad.dtype.type(negative_slope))
    return np.where(positive, grad, negative_slope * grad)


def gat_logits_sorted(plan: EdgePlan, score_dst: np.ndarray, score_src: np.ndarray,
                      negative_slope: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(raw, LeakyReLU(raw))`` attention logits of every edge of ``plan``,
    in its destination-sorted edge space (``raw[e] = score_dst[d_e] + score_src[s_e]``)."""
    raw = plan.expand_dst(score_dst) + plan.gather_src(score_src)
    return raw, leaky_relu_np(raw, negative_slope)


def gat_backward_sorted(plan: EdgePlan, x_src: np.ndarray, grad_out: np.ndarray,
                        alpha: np.ndarray, positive: np.ndarray, negative_slope: float,
                        weighted_sum: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of ``out[d] = Σ_e α_e · x_src[s_e]`` through the edge softmax
    and the LeakyReLU, everything per-edge in ``plan``'s sorted edge space.

    ``alpha`` are the rematerialized attention coefficients, ``positive`` the
    LeakyReLU mask (``raw > 0``).  ``weighted_sum[d] = Σ_e α_e ∂L/∂α_e`` is
    summed over this plan's edges unless the caller passes it — a SAR block
    sees only part of a destination's edges and supplies ``<out_d, grad_d>``.
    Returns ``(grad_x_src, grad_score_dst, grad_score_src)``.
    """
    grad_x_src = plan.u_mul_e_sum_t_sorted(grad_out, alpha)
    grad_alpha = plan.sddmm(x_src, grad_out)
    if weighted_sum is None:
        weighted_sum = plan.segment_sum_sorted(alpha * grad_alpha)
    grad_logits = alpha * (grad_alpha - plan.expand_dst(weighted_sum))
    grad_raw = leaky_relu_grad_np(grad_logits, positive, negative_slope)
    return (grad_x_src, plan.segment_sum_sorted(grad_raw),
            plan.segment_sum_src_sorted(grad_raw))


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


# --------------------------------------------------------------------------- #
# differentiable ops
# --------------------------------------------------------------------------- #
class NeighborAggregate(Function):
    """Plan-backed sum/mean aggregation of source features into destinations.

    The SpMM with the unweighted (``"sum"``) or in-degree-normalized
    (``"mean"``) adjacency: forward aggregates over the plan's cached CSR,
    backward scatters through the cached transpose — zero sparse
    constructions either way.
    """

    def forward(self, x: Tensor, plan: EdgePlan, op: str) -> np.ndarray:
        if op not in ("sum", "mean"):
            raise ValueError(f"op must be 'sum' or 'mean', got {op!r}")
        if x.shape[0] != plan.num_src:
            raise ValueError(
                f"x has {x.shape[0]} rows but plan expects {plan.num_src} sources"
            )
        out = plan.aggregate_mean(x.data) if op == "mean" else plan.aggregate_sum(x.data)
        self.save_for_backward(plan, op, x.data.ndim)
        return out

    def backward(self, grad_out):
        plan, op, ndim = self.saved
        grad = grad_out
        if op == "mean":
            counts = plan.clamped_in_degrees(grad_out.dtype)
            grad = grad_out / counts.reshape((plan.num_dst,) + (1,) * (ndim - 1))
        return (plan.aggregate_sum_t(grad),)


class EdgeScoreSum(Function):
    """Per-edge sum of destination- and source-node scores (DGL ``u_add_v``).

    ``out[e] = score_dst[dst_e] + score_src[src_e]`` — the first step of
    GAT's attention logits.  The backward pass segment-sums the per-edge
    gradient to both endpoints through the plan's cached selection matrices
    instead of two ``np.add.at`` scatter loops.
    """

    def forward(self, score_dst: Tensor, score_src: Tensor, plan: EdgePlan) -> np.ndarray:
        self.save_for_backward(plan)
        return score_dst.data[plan.dst] + score_src.data[plan.src]

    def backward(self, grad_out):
        (plan,) = self.saved
        return plan.segment_sum(grad_out), plan.segment_sum_src(grad_out)


class UMulESum(Function):
    """Weighted aggregation: ``out[d] = Σ_{e:(s→d)} w_e * x[s]``.

    ``x`` has shape ``(num_src, H, D)`` (or ``(num_src, D)``) and ``w`` has
    shape ``(E, H)`` (or ``(E,)``); gradients flow to both.  This is the core
    kernel of attention-based aggregation.  The forward sorts the weights
    into the plan's edge space once and both passes run every head through
    one head-blocked SpMM (one cached structure, zero per-call sparse
    builds).
    """

    def forward(self, x: Tensor, w: Tensor, plan: EdgePlan) -> np.ndarray:
        x_data, w_data = x.data, w.data
        squeeze = False
        if x_data.ndim == 2:
            x_data = x_data[:, None, :]
            squeeze = True
        if w_data.ndim == 1:
            w_data = w_data[:, None]
        # Saved for backward in the plan's sorted edge space.
        w_data = plan.sort_edges(w_data)
        out = plan.u_mul_e_sum_sorted(x_data, w_data)
        self.save_for_backward(x_data, w_data, squeeze, x.shape, w.shape, plan)
        return out[:, 0, :] if squeeze else out

    def backward(self, grad_out):
        x_data, w_data, squeeze, x_shape, w_shape, plan = self.saved
        grad = grad_out[:, None, :] if squeeze else grad_out
        # grad_w[e, h] = <x[src_e, h], grad_out[dst_e, h]>  (an SDDMM)
        grad_x = plan.u_mul_e_sum_t_sorted(grad, w_data)
        grad_w = plan.unsort_edges(plan.sddmm(x_data, grad))
        return grad_x.reshape(x_shape), grad_w.reshape(w_shape).astype(w_data.dtype)


class PoolAggregation(Function):
    """Element-wise max/min pooling over incoming edges.

    ``out[d] = op_{e:(s→d)} x[s]`` per feature dimension; destinations with
    no incoming edges yield ``0``.  The backward pass routes each output
    gradient to *every* source value attaining the extremum (the same
    subgradient convention as the distributed
    :class:`~repro.core.sage_dist.PoolingKernel`, so single-machine and SAR
    training stay bit-for-bit comparable).
    """

    def forward(self, x: Tensor, plan: EdgePlan, op: str) -> np.ndarray:
        if op not in ("max", "min"):
            raise ValueError(f"op must be 'max' or 'min', got {op!r}")
        data = x.data
        reduced = plan.aggregate_max(data) if op == "max" else plan.aggregate_min(data)
        out = np.where(np.isfinite(reduced), reduced, 0.0).astype(data.dtype, copy=False)
        self.save_for_backward(data, out, plan)
        return out

    def backward(self, grad_out):
        data, out, plan = self.saved
        mask = data[plan.src] == out[plan.dst]
        contrib = np.where(mask, grad_out[plan.dst], 0.0)
        return (plan.segment_sum_src(contrib).astype(grad_out.dtype, copy=False),)


class EdgeSoftmax(Function):
    """Softmax over incoming edges of each destination node (DGL ``edge_softmax``)."""

    def forward(self, scores: Tensor, plan: EdgePlan) -> np.ndarray:
        alpha = plan.edge_softmax(scores.data)
        self.save_for_backward(alpha, plan)
        return alpha

    def backward(self, grad_out):
        alpha, plan = self.saved
        weighted = plan.segment_sum(alpha * grad_out)
        return (alpha * (grad_out - weighted[plan.dst]),)


class FusedGATAggregation(Function):
    """Attention aggregation that keeps nothing edge-sized for backward (paper §3.3).

    The forward computes the stable softmax statistics and the weighted
    feature sums in one pass over the plan's sorted edge space; only the
    node-level inputs (which autograd keeps alive anyway) are saved.  The
    backward *recomputes* the attention coefficients from them — extra
    compute growing with the number of heads in exchange for a much smaller
    forward-pass footprint, the trade of the paper's Figure 2.
    """

    def forward(self, z: Tensor, score_dst: Tensor, score_src: Tensor, plan: EdgePlan,
                negative_slope: float) -> np.ndarray:
        _, weights, denom = _softmax_terms_sorted(plan, score_dst.data, score_src.data,
                                                  negative_slope)
        self.save_for_backward(z.data, score_dst.data, score_src.data, plan, negative_slope)
        return plan.u_mul_e_sum_sorted(z.data, weights) / denom[:, :, None]

    def backward(self, grad_out):
        z, score_dst, score_src, plan, negative_slope = self.saved
        raw, weights, denom = _softmax_terms_sorted(plan, score_dst, score_src, negative_slope)
        alpha = weights / plan.expand_dst(denom)
        grad_z, grad_score_dst, grad_score_src = gat_backward_sorted(
            plan, z, grad_out, alpha, raw > 0, negative_slope
        )
        return (grad_z, grad_score_dst.astype(score_dst.dtype),
                grad_score_src.astype(score_src.dtype))


# --------------------------------------------------------------------------- #
# functional wrappers
# --------------------------------------------------------------------------- #
def neighbor_aggregate(x: Tensor, plan: EdgePlan, op: str = "sum") -> Tensor:
    """Plan-backed sum/mean aggregation of source features into destinations."""
    return NeighborAggregate.apply(x, plan, op)


def u_add_v(score_dst: Tensor, score_src: Tensor, plan: EdgePlan) -> Tensor:
    """Per-edge ``score_dst[dst_e] + score_src[src_e]`` with plan-backed backward."""
    return EdgeScoreSum.apply(score_dst, score_src, plan)


def u_mul_e_sum(x: Tensor, w: Tensor, plan: EdgePlan) -> Tensor:
    return UMulESum.apply(x, w, plan)


def pool_aggregate(x: Tensor, plan: EdgePlan, op: str = "max") -> Tensor:
    """Max/min pooling of source features into destination nodes."""
    return PoolAggregation.apply(x, plan, op)


def edge_softmax(scores: Tensor, plan: EdgePlan) -> Tensor:
    return EdgeSoftmax.apply(scores, plan)
