"""Differentiable sparse / segment operations used for message passing.

These are the library's equivalents of DGL's SpMM / SDDMM / edge-softmax
kernels.  Graph structure (edge endpoints) is always treated as
non-differentiable; gradients only flow through dense feature and
attention-score tensors.

Every op takes the :class:`~repro.tensor.edge_plan.EdgePlan` of its edge set
— built once, obtained from the owning graph (``Graph.plan()``,
``MFGBlock.plan()``, ``EdgeBlock.plan()``, …) — and runs on the plan's cached
sort/CSR structures, so no call re-derives sparsity.  Every per-edge array
lives in the plan's destination-sorted edge space.

There is one attention op, :class:`GATAggregation`; its ``fused`` flag means
what it means for the distributed :class:`~repro.core.gat_dist.GATKernel`:
what the forward keeps for the backward, never which math runs.  The plain
NumPy helpers (suffixed ``_np`` or ``_sorted``) are that math; SAR's
sequential aggregation (Algorithm 1) runs them *outside* the autograd graph
and rematerializes them block by block in the backward pass.
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


def leaky_relu_np(raw: np.ndarray, negative_slope: float,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """LeakyReLU of a plain array, into ``out`` if given (``out=raw`` runs
    in place).  For ``0 < slope ≤ 1`` it is ``max(raw, slope·raw)`` — one
    pass, no mask, same bits as the select (slope 0 is left to the select:
    ``0·inf`` is NaN, which ``max`` keeps)."""
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(raw, negative_slope * raw, out=out)
    selected = np.where(raw > 0, raw, negative_slope * raw)
    if out is None:
        return selected
    out[...] = selected
    return out


def leaky_relu_grad_np(grad: np.ndarray, positive: np.ndarray, negative_slope: float,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """``grad`` where ``positive``, ``slope·grad`` elsewhere, into ``out`` if
    given (``out=grad`` runs in place): one multiply by a factor taken from
    ``(slope, 1)`` through the mask, with no per-element branch on its
    random signs — the select's bits for every slope, as ``x·1 == x``."""
    factors = np.array([negative_slope, 1], dtype=grad.dtype)
    return np.multiply(grad, factors.take(positive.view(np.uint8)), out=out)


def gat_raw_sorted(plan: EdgePlan, score_dst: np.ndarray,
                   score_src: np.ndarray) -> np.ndarray:
    """Raw attention logits ``raw[e] = score_dst[d_e] + score_src[s_e]`` of
    every edge of ``plan``, a fresh ``(E, H)`` array in its destination-sorted
    edge space (callers turn it into the logits in place with
    :func:`leaky_relu_np` once the sign mask is taken)."""
    raw = plan.expand_dst(score_dst).astype(np.result_type(score_dst, score_src), copy=False)
    raw += plan.gather_src(score_src)
    return raw


def gat_backward_sorted(plan: EdgePlan, x_src: np.ndarray, grad_out: np.ndarray,
                        alpha: np.ndarray, positive: np.ndarray, negative_slope: float,
                        weighted_sum: Optional[np.ndarray] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of ``out[d] = Σ_e α_e · x_src[s_e]`` through the edge softmax
    and the LeakyReLU, everything per-edge in ``plan``'s sorted edge space.

    ``alpha`` are the rematerialized attention coefficients, ``positive`` the
    LeakyReLU mask (``raw > 0``); neither is written.  ``weighted_sum[d] =
    Σ_e α_e ∂L/∂α_e`` is summed over this plan's edges unless the caller
    passes it — a SAR block sees only part of a destination's edges and
    supplies ``<out_d, grad_d>``.  The SDDMM's ``(E, H)`` output is the one
    per-edge buffer: ``∂L/∂α`` → ``∂L/∂logits`` → ``∂L/∂raw`` in place.
    Returns ``(grad_x_src, grad_score_dst, grad_score_src)``.
    """
    grad_x_src = plan.u_mul_e_sum_t_sorted(grad_out, alpha)
    grad = plan.sddmm(x_src, grad_out)
    if weighted_sum is None:
        weighted_sum = plan.segment_sum_sorted(alpha * grad)
    np.subtract(grad, plan.expand_dst(weighted_sum), out=grad)
    np.multiply(alpha, grad, out=grad)
    leaky_relu_grad_np(grad, positive, negative_slope, out=grad)
    return (grad_x_src, plan.segment_sum_sorted(grad),
            plan.segment_sum_src_sorted(grad))


def _softmax_terms_sorted(plan: EdgePlan, score_dst: np.ndarray, score_src: np.ndarray,
                          negative_slope: float):
    """``(raw > 0, exp(logits − max), Σ exp)`` of the whole edge set, per-edge
    arrays in ``plan``'s destination-sorted edge space — the one-block case
    of the SAR attention kernel (:class:`repro.core.gat_dist.GATKernel`).
    The raw logits, the logits and the weights share one buffer."""
    weights = gat_raw_sorted(plan, score_dst, score_src)
    positive = weights > 0
    leaky_relu_np(weights, negative_slope, out=weights)
    maxes = plan.segment_max_sorted(weights)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    np.subtract(weights, plan.expand_dst(maxes), out=weights)
    np.exp(weights, out=weights)
    denom = np.maximum(plan.segment_sum_sorted(weights), _TINY)
    return positive, weights, denom


# --------------------------------------------------------------------------- #
# differentiable ops
# --------------------------------------------------------------------------- #
def _check_rows(x: Tensor, expected: int, name: str, space: str) -> None:
    if x.shape[0] != expected:
        raise ValueError(f"{name} has {x.shape[0]} rows but plan expects {expected} {space}")


def check_scores(name: str, scores: np.ndarray, rows: int, heads: int) -> None:
    """Raise unless per-node attention ``scores`` have shape ``(rows, heads)``."""
    if scores.shape != (rows, heads):
        raise ValueError(
            f"{name} has shape {scores.shape}, expected (rows, H) = ({rows}, {heads})"
        )


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
        _check_rows(x, plan.num_src, "x", "sources")
        data = x.data
        reduced = plan.aggregate_max(data) if op == "max" else plan.aggregate_min(data)
        out = np.where(np.isfinite(reduced), reduced, 0.0).astype(data.dtype, copy=False)
        self.save_for_backward(data, out, plan)
        return out

    def backward(self, grad_out):
        data, out, plan = self.saved
        mask = plan.gather_src(data) == plan.expand_dst(out)
        contrib = np.where(mask, plan.expand_dst(grad_out), 0.0)
        return (plan.segment_sum_src_sorted(contrib).astype(grad_out.dtype, copy=False),)


class GATAggregation(Function):
    """Attention aggregation ``out[d] = Σ_e α_e · z[s_e]`` (paper Eq. 3), one
    op for both sides of the paper's Figure 2 trade (§3.3).

    The forward computes the stable softmax statistics in the plan's sorted
    edge space, runs every head through one head-blocked SpMM and divides by
    the softmax denominators.  ``fused`` decides only what the backward
    reads: ``False`` keeps the coefficients α as a tracked ``(E, H)`` tensor
    plus the LeakyReLU sign mask (the standard implementation's forward
    footprint); ``True`` keeps nothing edge-sized and *recomputes* both from
    the node-level inputs it saves in either setting — extra backward
    compute growing with the number of heads for a smaller forward peak.  The
    backward runs on the same bits either way, so both settings give
    identical gradients.
    """

    def forward(self, z: Tensor, score_dst: Tensor, score_src: Tensor, plan: EdgePlan,
                negative_slope: float, fused: bool) -> np.ndarray:
        if z.data.ndim != 3:
            raise ValueError(f"Expected z of shape (N, heads, dim), got {z.shape}")
        _check_rows(z, plan.num_src, "z", "sources")
        _check_rows(score_src, plan.num_src, "score_src", "sources")
        _check_rows(score_dst, plan.num_dst, "score_dst", "destinations")
        check_scores("score_src", score_src.data, plan.num_src, z.shape[1])
        check_scores("score_dst", score_dst.data, plan.num_dst, z.shape[1])
        positive, weights, denom = _softmax_terms_sorted(plan, score_dst.data, score_src.data,
                                                         negative_slope)
        out = plan.u_mul_e_sum_sorted(z.data, weights) / denom[:, :, None]
        kept = None
        if self.needs_grad and not fused:
            alpha = np.divide(weights, plan.expand_dst(denom), out=weights)
            kept = (Tensor(alpha, dtype=alpha.dtype), positive)
        self.save_for_backward(z.data, score_dst.data, score_src.data, plan, negative_slope,
                               kept)
        return out

    def backward(self, grad_out):
        z, score_dst, score_src, plan, negative_slope, kept = self.saved
        if kept is None:
            positive, alpha, denom = _softmax_terms_sorted(plan, score_dst, score_src,
                                                           negative_slope)
            np.divide(alpha, plan.expand_dst(denom), out=alpha)
        else:
            alpha, positive = kept[0].data, kept[1]
        grad_z, grad_score_dst, grad_score_src = gat_backward_sorted(
            plan, z, grad_out, alpha, positive, negative_slope
        )
        return (grad_z, grad_score_dst.astype(score_dst.dtype),
                grad_score_src.astype(score_src.dtype))


# --------------------------------------------------------------------------- #
# functional wrappers
# --------------------------------------------------------------------------- #
def neighbor_aggregate(x: Tensor, plan: EdgePlan, op: str = "sum") -> Tensor:
    """Plan-backed sum/mean aggregation of source features into destinations."""
    return NeighborAggregate.apply(x, plan, op)


def pool_aggregate(x: Tensor, plan: EdgePlan, op: str = "max") -> Tensor:
    """Max/min pooling of source features into destination nodes."""
    return PoolAggregation.apply(x, plan, op)

