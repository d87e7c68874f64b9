"""Differentiable sparse / segment operations used for message passing.

These are the library's equivalents of DGL's SpMM / SDDMM / edge-softmax
kernels.  Graph structure (edge endpoints, sparse adjacency) is always
treated as non-differentiable; gradients only flow through dense feature and
edge-weight tensors.

Every op accepts an optional ``plan`` — an
:class:`~repro.tensor.edge_plan.EdgePlan` built once for the edge set — and
then runs on the plan's cached sort/CSR structures instead of re-deriving
sparsity per call.  The contract is that ``plan`` was constructed from the
*same* ``(src, dst, num_dst, num_src)`` the op is called with; callers obtain
it from the owning graph (``Graph.plan()``, ``EdgeBlock.plan()``, …).  With
``plan=None`` the ops fall back to the naive scipy/``ufunc.at`` reference
path, which the tests gradcheck the plan path against.

Plain NumPy helpers (suffixed ``_np``) are exposed as well because SAR's
sequential aggregation (Algorithm 1) runs the same math *outside* the
autograd graph and rematerializes it manually in the backward pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.edge_plan import EdgePlan
from repro.tensor.tensor import Function, Tensor
from repro.utils.validation import check_1d_int_array

# --------------------------------------------------------------------------- #
# non-differentiable NumPy helpers
# --------------------------------------------------------------------------- #


def build_csr(src: np.ndarray, dst: np.ndarray, num_dst: int, num_src: int,
              weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """Build the (num_dst × num_src) aggregation matrix ``A[d, s] = w_e``.

    Multiplying ``A @ X`` aggregates source-node features into destination
    nodes (sum aggregation).  Parallel edges accumulate.
    """
    if weights is None:
        weights = np.ones(len(src), dtype=np.float32)
    mat = sp.csr_matrix(
        (weights.astype(np.float32, copy=False), (dst, src)),
        shape=(num_dst, num_src),
    )
    return mat


def segment_sum_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` buckets given by ``segment_ids``.

    With a ``plan`` (whose ``dst`` must equal ``segment_ids``) the reduction
    runs over the cached selection matrix — no per-call CSR build.
    """
    values = np.asarray(values)
    if plan is not None:
        return plan.segment_sum(values)
    if values.ndim > 1:
        flat = values.reshape(len(values), int(np.prod(values.shape[1:], dtype=np.int64)))
    else:
        flat = values[:, None]
    mat = sp.csr_matrix(
        (np.ones(len(segment_ids), dtype=flat.dtype),
         (segment_ids, np.arange(len(segment_ids)))),
        shape=(num_segments, len(segment_ids)),
    )
    out = mat @ flat
    return out.reshape((num_segments,) + values.shape[1:])


def segment_mean_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                    plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Mean-reduce ``values`` per segment (empty segments yield zeros)."""
    if plan is not None:
        return plan.segment_mean(np.asarray(values))
    sums = segment_sum_np(values, segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(sums.dtype)
    counts = np.maximum(counts, 1.0)
    return sums / counts.reshape((num_segments,) + (1,) * (values.ndim - 1))


def segment_max_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   initial: float = -np.inf,
                   plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Max-reduce ``values`` per segment (``initial`` fills empty segments and
    clamps every result from below, matching the ``np.maximum.at`` path)."""
    values = np.asarray(values)
    if plan is not None:
        out = plan.segment_max(values, initial=initial)
        # The plan kernel applies ``initial`` to empty segments only; the
        # reference path also clamps non-empty segments at ``initial``.
        return np.maximum(out, initial) if np.isfinite(initial) else out
    out = np.full((num_segments,) + values.shape[1:], initial, dtype=values.dtype)
    np.maximum.at(out, segment_ids, values)
    return out


def segment_min_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   initial: float = np.inf,
                   plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Min-reduce ``values`` per segment (``initial`` fills empty segments and
    clamps every result from above, matching the ``np.minimum.at`` path)."""
    values = np.asarray(values)
    if plan is not None:
        out = plan.segment_min(values, initial=initial)
        return np.minimum(out, initial) if np.isfinite(initial) else out
    out = np.full((num_segments,) + values.shape[1:], initial, dtype=values.dtype)
    np.minimum.at(out, segment_ids, values)
    return out


def segment_count_np(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of entries per segment."""
    return np.bincount(segment_ids, minlength=num_segments).astype(np.int64)


def edge_softmax_np(scores: np.ndarray, dst: np.ndarray, num_dst: int,
                    plan: Optional[EdgePlan] = None) -> np.ndarray:
    """Numerically-stable softmax of per-edge scores grouped by destination."""
    if plan is not None:
        return plan.edge_softmax(np.asarray(scores))
    maxes = segment_max_np(scores, dst, num_dst, initial=-np.inf)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    shifted = scores - maxes[dst]
    exp = np.exp(shifted)
    denom = segment_sum_np(exp, dst, num_dst)
    denom = np.maximum(denom, np.finfo(exp.dtype).tiny)
    return exp / denom[dst]


def u_mul_e_sum_np(x: np.ndarray, w: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   num_dst: int) -> np.ndarray:
    """``out[d, h] = Σ_{e:(s→d)} w[e, h] · x[s, h]`` through a fresh scipy CSR
    per head — the ``plan=None`` reference of
    :meth:`~repro.tensor.edge_plan.EdgePlan.u_mul_e_sum_sorted`.  Swapping
    ``src`` and ``dst`` (and ``num_dst`` for the source count) gives the
    transpose.  The result has ``x``'s dtype."""
    num_src = x.shape[0]
    out = np.stack([sp.csr_matrix((w_h, (dst, src)), shape=(num_dst, num_src)) @ x_h
                    for w_h, x_h in zip(w.T, x.transpose(1, 0, 2))], axis=1)
    return out.astype(x.dtype, copy=False)


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


# --------------------------------------------------------------------------- #
# differentiable ops
# --------------------------------------------------------------------------- #
class SpMM(Function):
    """``adj @ x`` with a fixed sparse adjacency (gradient only w.r.t. ``x``)."""

    def forward(self, x: Tensor, adj: sp.spmatrix, adj_t: Optional[sp.spmatrix] = None) -> np.ndarray:
        if adj.shape[1] != x.shape[0]:
            raise ValueError(
                f"adjacency has {adj.shape[1]} columns but x has {x.shape[0]} rows"
            )
        x2d = x.data.reshape(x.shape[0], -1)
        out = adj @ x2d
        self.save_for_backward(adj_t if adj_t is not None else adj.T.tocsr(), x.shape)
        return np.asarray(out).reshape((adj.shape[0],) + x.shape[1:])

    def backward(self, grad_out):
        adj_t, x_shape = self.saved
        g2d = grad_out.reshape(grad_out.shape[0], -1)
        grad_x = adj_t @ g2d
        return (np.asarray(grad_x).reshape(x_shape),)


class NeighborAggregate(Function):
    """Plan-backed sum/mean aggregation of source features into destinations.

    The plan-native equivalent of :class:`SpMM` with the (cached) ``"none"``
    or ``"mean"``-normalized adjacency: forward aggregates over the plan's
    cached CSR, backward scatters through the cached transpose — zero sparse
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


class SegmentSum(Function):
    """Differentiable :func:`segment_sum_np`."""

    def forward(self, values: Tensor, segment_ids: np.ndarray, num_segments: int,
                plan: Optional[EdgePlan] = None) -> np.ndarray:
        segment_ids = check_1d_int_array(segment_ids, "segment_ids", max_value=None)
        self.save_for_backward(segment_ids)
        return segment_sum_np(values.data, segment_ids, num_segments, plan=plan)

    def backward(self, grad_out):
        (segment_ids,) = self.saved
        return (grad_out[segment_ids],)


class SegmentMean(Function):
    """Differentiable per-segment mean (empty segments produce zeros)."""

    def forward(self, values: Tensor, segment_ids: np.ndarray, num_segments: int,
                plan: Optional[EdgePlan] = None) -> np.ndarray:
        segment_ids = check_1d_int_array(segment_ids, "segment_ids", max_value=None)
        counts = np.maximum(
            np.bincount(segment_ids, minlength=num_segments), 1
        ).astype(values.data.dtype)
        self.save_for_backward(segment_ids, counts, values.data.ndim)
        return segment_sum_np(values.data, segment_ids, num_segments, plan=plan) / counts.reshape(
            (num_segments,) + (1,) * (values.data.ndim - 1)
        )

    def backward(self, grad_out):
        segment_ids, counts, ndim = self.saved
        scaled = grad_out / counts.reshape((len(counts),) + (1,) * (ndim - 1))
        return (scaled[segment_ids],)


class UMulESum(Function):
    """Weighted aggregation: ``out[d] = Σ_{e:(s→d)} w_e * x[s]``.

    ``x`` has shape ``(num_src, H, D)`` (or ``(num_src, D)``) and ``w`` has
    shape ``(E, H)`` (or ``(E,)``); gradients flow to both.  This is the core
    kernel of attention-based aggregation.  With a ``plan`` the forward sorts
    the weights into the plan's edge space once and both passes run every
    head through one head-blocked SpMM (one cached structure, zero per-call
    sparse builds); without one, :func:`u_mul_e_sum_np` builds a fresh CSR
    per head per pass.
    """

    def forward(self, x: Tensor, w: Tensor, src: np.ndarray, dst: np.ndarray,
                num_dst: int, plan: Optional[EdgePlan] = None) -> np.ndarray:
        x_data, w_data = x.data, w.data
        squeeze = False
        if x_data.ndim == 2:
            x_data = x_data[:, None, :]
            squeeze = True
        if w_data.ndim == 1:
            w_data = w_data[:, None]
        if plan is not None:
            # Saved for backward in the plan's sorted edge space.
            w_data = plan.sort_edges(w_data)
            out = plan.u_mul_e_sum_sorted(x_data, w_data)
        else:
            out = u_mul_e_sum_np(x_data, w_data, src, dst, num_dst)
        self.save_for_backward(x_data, w_data, src, dst, squeeze, x.shape, w.shape, plan)
        return out[:, 0, :] if squeeze else out

    def backward(self, grad_out):
        x_data, w_data, src, dst, squeeze, x_shape, w_shape, plan = self.saved
        grad = grad_out[:, None, :] if squeeze else grad_out
        # grad_w[e, h] = <x[src_e, h], grad_out[dst_e, h]>  (an SDDMM)
        if plan is not None:
            grad_x = plan.u_mul_e_sum_t_sorted(grad, w_data)
            grad_w = plan.unsort_edges(plan.sddmm(x_data, grad))
        else:
            grad_x = u_mul_e_sum_np(grad, w_data, dst, src, x_data.shape[0])
            grad_w = np.einsum("ehd,ehd->eh", x_data[src], grad[dst])
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

    def forward(self, x: Tensor, src: np.ndarray, dst: np.ndarray, num_dst: int,
                op: str, plan: Optional[EdgePlan] = None) -> np.ndarray:
        if op not in ("max", "min"):
            raise ValueError(f"op must be 'max' or 'min', got {op!r}")
        data = x.data
        if plan is not None:
            reduced = plan.aggregate_max(data) if op == "max" else plan.aggregate_min(data)
        else:
            gathered = data[src]
            if op == "max":
                reduced = segment_max_np(gathered, dst, num_dst)
            else:
                reduced = segment_min_np(gathered, dst, num_dst)
        out = np.where(np.isfinite(reduced), reduced, 0.0).astype(data.dtype, copy=False)
        self.save_for_backward(data, src, dst, out, x.shape, plan)
        return out

    def backward(self, grad_out):
        data, src, dst, out, x_shape, plan = self.saved
        mask = data[src] == out[dst]
        contrib = np.where(mask, grad_out[dst], 0.0)
        if plan is not None:
            return (plan.segment_sum_src(contrib).astype(grad_out.dtype, copy=False),)
        grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
        np.add.at(grad_x, src, contrib)
        return (grad_x,)


class EdgeSoftmax(Function):
    """Softmax over incoming edges of each destination node (DGL ``edge_softmax``)."""

    def forward(self, scores: Tensor, dst: np.ndarray, num_dst: int,
                plan: Optional[EdgePlan] = None) -> np.ndarray:
        alpha = edge_softmax_np(scores.data, dst, num_dst, plan=plan)
        self.save_for_backward(alpha, dst, num_dst, plan)
        return alpha

    def backward(self, grad_out):
        alpha, dst, num_dst, plan = self.saved
        weighted = segment_sum_np(alpha * grad_out, dst, num_dst, plan=plan)
        return (alpha * (grad_out - weighted[dst]),)


# --------------------------------------------------------------------------- #
# functional wrappers
# --------------------------------------------------------------------------- #
def spmm(x: Tensor, adj: sp.spmatrix, adj_t: Optional[sp.spmatrix] = None) -> Tensor:
    return SpMM.apply(x, adj, adj_t)


def neighbor_aggregate(x: Tensor, plan: EdgePlan, op: str = "sum") -> Tensor:
    """Plan-backed sum/mean aggregation of source features into destinations."""
    return NeighborAggregate.apply(x, plan, op)


def u_add_v(score_dst: Tensor, score_src: Tensor, plan: EdgePlan) -> Tensor:
    """Per-edge ``score_dst[dst_e] + score_src[src_e]`` with plan-backed backward."""
    return EdgeScoreSum.apply(score_dst, score_src, plan)


def segment_sum(values: Tensor, segment_ids, num_segments: int,
                plan: Optional[EdgePlan] = None) -> Tensor:
    return SegmentSum.apply(values, np.asarray(segment_ids), num_segments, plan)


def segment_mean(values: Tensor, segment_ids, num_segments: int,
                 plan: Optional[EdgePlan] = None) -> Tensor:
    return SegmentMean.apply(values, np.asarray(segment_ids), num_segments, plan)


def u_mul_e_sum(x: Tensor, w: Tensor, src, dst, num_dst: int,
                plan: Optional[EdgePlan] = None) -> Tensor:
    return UMulESum.apply(x, w, np.asarray(src), np.asarray(dst), num_dst, plan)


def pool_aggregate(x: Tensor, src, dst, num_dst: int, op: str = "max",
                   plan: Optional[EdgePlan] = None) -> Tensor:
    """Max/min pooling of source features into destination nodes."""
    return PoolAggregation.apply(x, np.asarray(src), np.asarray(dst), num_dst, op, plan)


def edge_softmax(scores: Tensor, dst, num_dst: int,
                 plan: Optional[EdgePlan] = None) -> Tensor:
    return EdgeSoftmax.apply(scores, np.asarray(dst), num_dst, plan)
