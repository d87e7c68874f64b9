"""Naive reference kernels the planned kernels are tested against.

The library runs every message-passing op through an
:class:`~repro.tensor.edge_plan.EdgePlan`.  The functions here compute the
same mathematics the obvious way — a fresh scipy CSR per call, ``ufunc.at``
scatters, per-edge arrays in input edge order — so a test can compare the
planned path against an independent oracle.  :class:`ReferenceGraph` puts
them behind the aggregation protocol, so an unmodified layer or model can
run on them.  :class:`ReferenceRowCache` is the row-at-a-time twin of
:class:`~repro.utils.rowcache.RowCache`, on an
:class:`~repro.utils.lru.LRUDict`.  :func:`relabel_block_np` is the
order-preserving relabel :func:`~repro.graph.mfg.compact_block` replaced.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Function, Tensor
from repro.utils.lru import LRUDict

_TINY = np.finfo(np.float32).tiny


def segment_sum_np(values: np.ndarray, segment_ids: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` buckets given by ``segment_ids``."""
    values = np.asarray(values)
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


def segment_mean_np(values: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
    """Mean-reduce ``values`` per segment (empty segments yield zeros)."""
    sums = segment_sum_np(values, segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(sums.dtype)
    counts = np.maximum(counts, 1.0)
    return sums / counts.reshape((num_segments,) + (1,) * (values.ndim - 1))


def segment_max_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   initial: float = -np.inf) -> np.ndarray:
    """Max-reduce ``values`` per segment (``initial`` fills empty segments and
    clamps every result from below)."""
    values = np.asarray(values)
    out = np.full((num_segments,) + values.shape[1:], initial, dtype=values.dtype)
    np.maximum.at(out, segment_ids, values)
    return out


def segment_min_np(values: np.ndarray, segment_ids: np.ndarray, num_segments: int,
                   initial: float = np.inf) -> np.ndarray:
    """Min-reduce ``values`` per segment (``initial`` fills empty segments and
    clamps every result from above)."""
    values = np.asarray(values)
    out = np.full((num_segments,) + values.shape[1:], initial, dtype=values.dtype)
    np.minimum.at(out, segment_ids, values)
    return out


def edge_softmax_np(scores: np.ndarray, dst: np.ndarray, num_dst: int) -> np.ndarray:
    """Numerically-stable softmax of per-edge scores grouped by destination."""
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
    per head — the reference of
    :meth:`~repro.tensor.edge_plan.EdgePlan.u_mul_e_sum_sorted`.  Swapping
    ``src`` and ``dst`` (and ``num_dst`` for the source count) gives the
    transpose.  The result has ``x``'s dtype."""
    num_src = x.shape[0]
    out = np.stack([sp.csr_matrix((w_h, (dst, src)), shape=(num_dst, num_src)) @ x_h
                    for w_h, x_h in zip(w.T, x.transpose(1, 0, 2))], axis=1)
    return out.astype(x.dtype, copy=False)


def fused_gat_forward_np(z: np.ndarray, score_dst: np.ndarray, score_src: np.ndarray,
                         src: np.ndarray, dst: np.ndarray, num_nodes: int,
                         negative_slope: float) -> np.ndarray:
    """Single-pass attention aggregation (no per-edge tensor survives the call)."""
    raw = score_dst[dst] + score_src[src]
    logits = np.where(raw > 0, raw, negative_slope * raw)
    maxes = segment_max_np(logits, dst, num_nodes)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    weights = np.exp(logits - maxes[dst])
    denom = np.maximum(segment_sum_np(weights, dst, num_nodes), _TINY)
    return u_mul_e_sum_np(z, weights, src, dst, num_nodes) / denom[:, :, None]


def fused_gat_backward_np(grad_out: np.ndarray, z: np.ndarray, score_dst: np.ndarray,
                          score_src: np.ndarray, src: np.ndarray, dst: np.ndarray,
                          num_nodes: int, negative_slope: float
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute attention coefficients and backpropagate through the aggregation."""
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


def add_block(acc, logits: np.ndarray, values: np.ndarray, dst: np.ndarray,
              src: np.ndarray) -> None:
    """Fold one edge block into a
    :class:`~repro.core.stable_softmax.RunningSoftmaxAccumulator` — per-edge
    arrays in input edge order, naive segment kernels — the reference of its
    ``add_block_sorted``."""
    acc._check_heads(logits)
    if acc.stable:
        safe_max = acc._raise_max(segment_max_np(logits, dst, acc.num_nodes))
        weights = np.exp(logits - safe_max[dst])
    else:
        weights = np.exp(logits)
    acc.denominator += segment_sum_np(weights, dst, acc.num_nodes)
    acc.numerator += u_mul_e_sum_np(values, weights, src, dst, acc.num_nodes)


def sage_reference_forward(graph, x, w_neigh, w_self, bias=None,
                           aggregator: str = "mean"):
    """Plain-NumPy GraphSAGE layer (``x·W_self + AGG(x·W_neigh) + b``)."""
    x = x.data if isinstance(x, Tensor) else x
    z = x @ (w_neigh.data if isinstance(w_neigh, Tensor) else w_neigh)
    if aggregator in ("max", "min"):
        reduce = segment_max_np if aggregator == "max" else segment_min_np
        agg = reduce(z[graph.src], graph.dst, graph.num_nodes)
        agg = np.where(np.isfinite(agg), agg, 0.0).astype(z.dtype, copy=False)
    else:
        agg = np.zeros_like(z)
        np.add.at(agg, graph.dst, z[graph.src])
        if aggregator == "mean":
            deg = np.maximum(graph.in_degrees(), 1).astype(z.dtype)
            agg = agg / deg[:, None]
    out = x @ (w_self.data if isinstance(w_self, Tensor) else w_self) + agg
    if bias is not None:
        out = out + (bias.data if isinstance(bias, Tensor) else bias)
    return out


# --------------------------------------------------------------------------- #
# the aggregation protocol over the naive kernels
# --------------------------------------------------------------------------- #
class _NaiveAggregate(Function):
    """Sum / mean / max / min over in-edges; the backward scatters with
    ``np.add.at`` (pooling: to every source attaining the extremum)."""

    def forward(self, z: Tensor, src, dst, num_dst: int, op: str) -> np.ndarray:
        data = z.data
        if op in ("max", "min"):
            reduce = segment_max_np if op == "max" else segment_min_np
            out = reduce(data[src], dst, num_dst)
            out = np.where(np.isfinite(out), out, 0.0).astype(data.dtype, copy=False)
        else:
            out = segment_sum_np(data[src], dst, num_dst)
        counts = np.ones(num_dst, dtype=data.dtype)
        if op == "mean":
            counts = np.maximum(np.bincount(dst, minlength=num_dst), 1).astype(data.dtype)
            out = out / counts[:, None]
        self.save_for_backward(data, src, dst, out, op, counts)
        return out

    def backward(self, grad_out):
        data, src, dst, out, op, counts = self.saved
        if op in ("max", "min"):
            contrib = np.where(data[src] == out[dst], grad_out[dst], 0.0)
        else:
            contrib = (grad_out / counts[:, None])[dst]
        grad = np.zeros(data.shape, dtype=grad_out.dtype)
        np.add.at(grad, src, contrib)
        return (grad,)


class _NaiveAttention(Function):
    """Attention aggregation through :func:`fused_gat_forward_np` and
    :func:`fused_gat_backward_np`."""

    def forward(self, z: Tensor, score_dst: Tensor, score_src: Tensor, src, dst,
                num_dst: int, negative_slope: float) -> np.ndarray:
        self.save_for_backward(z.data, score_dst.data, score_src.data, src, dst,
                               num_dst, negative_slope)
        return fused_gat_forward_np(z.data, score_dst.data, score_src.data, src, dst,
                                    num_dst, negative_slope)

    def backward(self, grad_out):
        return fused_gat_backward_np(grad_out, *self.saved)


class ReferenceGraph:
    """A :class:`~repro.graph.graph.Graph` or
    :class:`~repro.graph.mfg.MFGBlock` whose aggregation protocol runs the
    naive kernels above; everything else (``num_nodes``, ``gather_dst``,
    the block's node lists) is the wrapped graph's."""

    def __init__(self, graph):
        self.graph = graph
        self.num_dst = getattr(graph, "num_dst_nodes", graph.num_nodes)

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def aggregate_neighbors(self, z: Tensor, op: str = "mean") -> Tensor:
        return _NaiveAggregate.apply(z, self.src, self.dst, self.num_dst, op)

    def gat_aggregate(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                      negative_slope: float = 0.2, fused: bool = False) -> Tensor:
        return _NaiveAttention.apply(z, self.gather_dst(score_dst), score_src,
                                     self.src, self.dst, self.num_dst, negative_slope)


class ReferenceRowCache:
    """:class:`~repro.utils.rowcache.RowCache` one row at a time: an
    :class:`~repro.utils.lru.LRUDict` keyed ``(space, key)`` with a byte
    budget.  :attr:`reinsertions` counts rows an insert names that were held
    when it began, or that it named before, but that an earlier row of the
    same insert evicted: the dict counts an eviction and an insertion there,
    ``RowCache`` counts neither."""

    def __init__(self, byte_budget: int):
        self.rows = LRUDict(capacity=None, byte_budget=byte_budget)
        self.reinsertions = 0

    def lookup(self, space, keys):
        found = np.zeros(len(keys), dtype=bool)
        hits = []
        for i, key in enumerate(keys):
            row = self.rows.get((space, int(key)))
            if row is not None:
                found[i] = True
                hits.append(row)
        return found, (np.stack(hits) if hits else None)

    def insert(self, space, keys, rows) -> int:
        named = {(space, int(key)) for key in keys if (space, int(key)) in self.rows}
        added = 0
        for key, row in zip(keys, rows):
            key = (space, int(key))
            if key in self.rows:
                self.rows.touch(key)
                continue
            self.reinsertions += key in named
            named.add(key)
            self.rows[key] = np.array(row, copy=True)
            added += 1
        return added

    def keys(self, space) -> np.ndarray:
        return np.array(sorted(key for s, key in self.rows if s == space), dtype=np.int64)

    def clear(self) -> None:
        self.rows.clear()


def relabel_block_np(edges, dst_nodes: np.ndarray, src_nodes=None):
    """``(src_nodes, {relation: (src rows, dst rows)}, dst_in_src)`` of one
    block by ``np.unique`` + ``np.searchsorted``, every relation's edges in
    input order — the block :func:`~repro.graph.mfg.compact_block` builds
    from the same ``{relation: (src ids, dst rows)}``, before its sort."""
    if src_nodes is None:
        src_nodes = np.unique(np.concatenate([src for src, _ in edges.values()] + [dst_nodes]))
    relabelled = {name: (np.searchsorted(src_nodes, src), np.asarray(dst, dtype=np.int64))
                  for name, (src, dst) in edges.items()}
    return src_nodes, relabelled, np.searchsorted(src_nodes, dst_nodes)
