"""Naive reference kernels the planned kernels are tested against.

The library runs every message-passing op through an
:class:`~repro.tensor.edge_plan.EdgePlan`.  The functions here compute the
same mathematics the obvious way — a fresh scipy CSR per call, ``ufunc.at``
scatters, per-edge arrays in input edge order — so a test can compare the
planned path against an independent oracle.  :class:`ReferenceGraph` puts
them behind the aggregation protocol, so an unmodified layer or model can
run on them.  :class:`ReferenceRowCache` is the row-at-a-time twin of
:class:`~repro.utils.rowcache.RowCache`, on an
:class:`~repro.utils.lru.LRUDict`.  :class:`ReferenceStore` is a
:class:`~repro.store.FeatureStore` built from the abstract protocol alone.
:func:`relabel_block_np` is the
order-preserving relabel :func:`~repro.graph.mfg.compact_block` replaced.
:func:`unfused_epilogue` is the inter-layer chain
:func:`~repro.nn.norm.layer_epilogue` runs as one node — BatchNorm, then
:func:`relu` / :func:`elu`, then :func:`dropout`, each its own node — and
:func:`unfused` makes a model run it.  :func:`mean` is the loss reduction
the tests build from the ops the library keeps.
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.store import FeatureStore
from repro.tensor.tensor import Function, Tensor
from repro.utils.lru import LRUDict
from repro.utils.seed import get_rng

_TINY = np.finfo(np.float32).tiny
#: GAT's LeakyReLU slope
_SLOPE = 0.2


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
                         src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Single-pass attention aggregation (no per-edge tensor survives the call)."""
    raw = score_dst[dst] + score_src[src]
    logits = np.where(raw > 0, raw, _SLOPE * raw)
    maxes = segment_max_np(logits, dst, num_nodes)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    weights = np.exp(logits - maxes[dst])
    denom = np.maximum(segment_sum_np(weights, dst, num_nodes), _TINY)
    return u_mul_e_sum_np(z, weights, src, dst, num_nodes) / denom[:, :, None]


def fused_gat_backward_np(grad_out: np.ndarray, z: np.ndarray, score_dst: np.ndarray,
                          score_src: np.ndarray, src: np.ndarray, dst: np.ndarray,
                          num_nodes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute attention coefficients and backpropagate through the aggregation."""
    raw = score_dst[dst] + score_src[src]
    logits = np.where(raw > 0, raw, _SLOPE * raw)
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
    grad_raw = np.where(raw > 0, grad_logits, _SLOPE * grad_logits)
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
    if aggregator == "max":
        agg = segment_max_np(z[graph.src], graph.dst, graph.num_nodes)
        agg = np.where(np.isfinite(agg), agg, 0.0).astype(z.dtype, copy=False)
    else:
        agg = np.zeros_like(z)
        np.add.at(agg, graph.dst, z[graph.src])
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
    """Mean / max over in-edges; the backward scatters with ``np.add.at``
    (pooling: to every source attaining the maximum)."""

    def forward(self, z: Tensor, src, dst, num_dst: int, op: str) -> np.ndarray:
        data = z.data
        counts = None
        if op == "max":
            out = segment_max_np(data[src], dst, num_dst)
            out = np.where(np.isfinite(out), out, 0.0).astype(data.dtype, copy=False)
        else:
            counts = np.maximum(np.bincount(dst, minlength=num_dst), 1).astype(data.dtype)
            out = segment_sum_np(data[src], dst, num_dst) / counts[:, None]
        self.save_for_backward(data, src, dst, out, op, counts)
        return out

    def backward(self, grad_out):
        data, src, dst, out, op, counts = self.saved
        if op == "max":
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
                num_dst: int) -> np.ndarray:
        self.save_for_backward(z.data, score_dst.data, score_src.data, src, dst, num_dst)
        return fused_gat_forward_np(z.data, score_dst.data, score_src.data, src, dst,
                                    num_dst)

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
                      fused: bool = False) -> Tensor:
        return _NaiveAttention.apply(z, self.gather_dst(score_dst), score_src,
                                     self.src, self.dst, self.num_dst)


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


class ReferenceStore(FeatureStore):
    """A feature store with nothing beyond the abstract protocol.

    Every :meth:`gather`, ``gather(None)`` included, returns a fresh copy,
    never a view of the backing matrix, and the store has no ``replace``: a
    consumer that gives bit-identical results over it relies on nothing
    :class:`~repro.store.DenseStore` adds.  :attr:`gathers` counts the reads.
    """

    def __init__(self, matrix: np.ndarray):
        self._matrix = np.array(matrix, copy=True)
        self._lock = threading.Lock()
        self.gathers = 0

    @property
    def num_rows(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._matrix.dtype

    @property
    def version(self) -> int:
        return 1

    def gather(self, node_ids):
        with self._lock:
            self.gathers += 1
        if node_ids is None:
            return self._matrix.copy()
        return self._matrix[self._check_ids(node_ids)]


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


# --------------------------------------------------------------------------- #
# the unfused inter-layer chain
# --------------------------------------------------------------------------- #
class BatchNormReference(Function):
    """(Optionally distributed) batch norm as a node of its own.

    The forward reduces ``Σx`` and ``Σx²`` in float64 and writes
    ``x · scale + shift``; the backward reduces ``Σg`` and ``Σg·x`` and
    writes ``dx = g · a + x · b + c``.  Both pairs of reductions are
    all-reduced when ``comm`` is given.
    """

    def forward(self, x: Tensor, gamma: Tensor, beta: Tensor, comm, eps: float) -> np.ndarray:
        data = x.data
        num_features = data.shape[1]
        local_sum = np.einsum("ij->j", data, dtype=np.float64)
        local_sumsq = np.einsum("ij,ij->j", data, data, dtype=np.float64)
        stats = np.concatenate([[np.float64(data.shape[0])], local_sum, local_sumsq])
        if comm is not None:
            stats = comm.allreduce(stats, op="sum", tag="batchnorm")
        total_count = max(stats[0], 1.0)
        mean = stats[1:1 + num_features] / total_count
        var = np.maximum(stats[1 + num_features:] / total_count - mean ** 2, 0.0)
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma.data * inv_std
        out = data * scale.astype(data.dtype)
        out += (beta.data - mean * scale).astype(data.dtype)
        self.save_for_backward(data, gamma.data, mean, inv_std, total_count, comm)
        self.batch_mean = mean.astype(data.dtype)
        self.batch_var = var.astype(data.dtype)
        return out

    def backward(self, grad_out):
        data, gamma, mean, inv_std, total_count, comm = self.saved
        num_features = data.shape[1]
        sum_g = np.einsum("ij->j", grad_out, dtype=np.float64)
        sum_gx = np.einsum("ij,ij->j", grad_out, data, dtype=np.float64)
        dgamma = inv_std * (sum_gx - mean * sum_g)
        dbeta = sum_g
        terms = np.concatenate([sum_g, sum_gx])
        if comm is not None:
            terms = comm.allreduce(terms, op="sum", tag="batchnorm_grad")
        total_g, total_gx = terms[:num_features], terms[num_features:]
        a = gamma * inv_std
        b = -a * inv_std ** 2 * (total_gx - mean * total_g) / total_count
        c = -a * total_g / total_count - mean * b
        dx = grad_out * a.astype(data.dtype)
        dx += c.astype(data.dtype)
        dx += data * b.astype(data.dtype)
        return (dx, dgamma.astype(gamma.dtype, copy=False),
                dbeta.astype(gamma.dtype, copy=False))


# --------------------------------------------------------------------------- #
# ops the tensor library does not carry: the unfused epilogue chain's nodes
# and the mean the tests build their losses with
# --------------------------------------------------------------------------- #
def mean(t: Tensor) -> Tensor:
    """The mean of every entry, as ``Mul`` by ``1 / size`` then ``Sum``: its
    gradient is ``1 / size`` everywhere, the bits a dedicated mean op gives."""
    return (t * (1.0 / t.size)).sum()


class ReLU(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        mask = a.data > 0
        self.save_for_backward(mask)
        return a.data * mask

    def backward(self, grad_out):
        (mask,) = self.saved
        return (grad_out * mask,)


class ELU(Function):
    """``x`` where ``x > 0``, ``eˣ − 1`` elsewhere (alpha 1, GAT's).

    The negative branch ``neg`` is exactly ``+0`` wherever ``x > 0`` and
    ``neg + 1`` exactly ``1`` there, so ``max(x, 0) + neg`` and
    ``grad_out * (neg + 1)`` are the selects bit for bit.
    """

    def forward(self, a: Tensor) -> np.ndarray:
        x = a.data
        neg = np.exp(np.minimum(x, 0.0)) - 1.0
        self.save_for_backward(neg)
        return np.maximum(x, 0.0) + neg

    def backward(self, grad_out):
        (neg,) = self.saved
        return (grad_out * (neg + 1.0),)


class Dropout(Function):
    """Training-mode inverted dropout: kept units scale by ``1 / (1 - p)``;
    the keep mask is drawn from :func:`~repro.utils.seed.get_rng`."""

    def forward(self, a: Tensor, p: float) -> np.ndarray:
        if p == 0.0:
            self.save_for_backward(None)
            return a.data
        keep = 1.0 - p
        mask = (get_rng().random(a.shape) < keep).astype(a.data.dtype) / keep
        self.save_for_backward(mask)
        return a.data * mask

    def backward(self, grad_out):
        (mask,) = self.saved
        if mask is None:
            return (grad_out,)
        return (grad_out * mask,)


def relu(a: Tensor) -> Tensor:
    return ReLU.apply(a)


def elu(a: Tensor) -> Tensor:
    return ELU.apply(a)


def dropout(a: Tensor, p: float) -> Tensor:
    return Dropout.apply(a, p)


def unfused_epilogue(x: Tensor, norm=None, activation=None, p: float = 0.0) -> Tensor:
    """:func:`~repro.nn.norm.layer_epilogue`'s chain, one node per step.

    A training-mode ``norm`` runs :class:`BatchNormReference` and updates its
    running buffers; an eval-mode one is ``x * scale + shift`` in tensor
    arithmetic.
    """
    if norm is not None:
        if norm.training:
            fn = BatchNormReference()
            x = fn.run(x, norm.gamma, norm.beta, norm.comm, norm.eps)
            m = norm.momentum
            norm.set_buffer("running_mean", (1 - m) * norm.running_mean + m * fn.batch_mean)
            norm.set_buffer("running_var", (1 - m) * norm.running_var + m * fn.batch_var)
        else:
            inv_std = 1.0 / np.sqrt(norm.running_var + norm.eps)
            scale = Tensor((norm.gamma.data * inv_std).astype(x.dtype))
            shift = Tensor((norm.beta.data - norm.gamma.data * norm.running_mean * inv_std)
                           .astype(x.dtype))
            x = x * scale + shift
    if activation == "relu":
        x = relu(x)
    elif activation == "elu":
        x = elu(x)
    return dropout(x, p)


def unfused(model):
    """``model``, made to run :func:`unfused_epilogue` between its conv layers."""
    def forward_layer(index, graph, x):
        x = model.convs[index](graph, x)
        if index < len(model.convs) - 1:
            norm = model.norms[index] if model.use_batch_norm else None
            x = unfused_epilogue(x, norm, model.activation,
                                 model.dropout if model.training else 0.0)
        return x

    model.forward_layer = forward_layer
    return model
