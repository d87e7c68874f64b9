"""Graph attention network (GAT) layer.

One attention op serves both GAT layers: the graph's ``gat_aggregate`` runs
:class:`~repro.tensor.sparse.GATAggregation` on a single machine and the
SAR / domain-parallel :class:`~repro.core.gat_dist.GATKernel` on a
distributed graph.  The layers differ only in :attr:`GATConv.uses_fused_kernel`,
which decides what the op keeps for the backward pass.  This layer keeps the
per-edge attention coefficients as an ``(E, H)`` tensor, as DGL's ``GATConv``
does (the baseline in the paper's Figure 2);
:class:`~repro.nn.gat_fused.FusedGATConv` keeps nothing edge-sized and
recomputes them.  Outputs and gradients are the same bits either way.

GAT layer (paper Eq. 3), evaluated per attention head:

``e_{j→i} = LeakyReLU(a_l · z_i + a_r · z_j)``
``α_{j→i} = softmax_j(e_{j→i})``
``h_i = Σ_j α_{j→i} · z_j + b``

The LeakyReLU's slope is :data:`~repro.tensor.sparse.NEGATIVE_SLOPE` (0.2,
the GAT paper's), the bias is always on, and the output activation ``σ`` is
the models' (:func:`~repro.nn.norm.layer_epilogue`), not the layer's.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import init
from repro.tensor.tensor import Function, Tensor
from repro.utils.validation import check_positive_int


class AttentionScores(Function):
    """Both per-node attention scores of ``z`` (N, H, D) in one op:
    ``out[0] = (z · a_l).sum(-1)`` and ``out[1] = (z · a_r).sum(-1)``,
    stacked as ``(2, N, H)``.

    Two ``Mul`` + ``Sum`` pairs compute the same bits, but autograd keeps
    each ``(N, H, D)`` product alive until the backward pass; this op saves
    only ``z`` and the two attention vectors.  The backward uses the
    composition's expressions — ``g[..., None] · a`` for ``z`` and
    ``(g[..., None] · z).sum(0)`` for ``a`` — so the vectors' gradients are
    its bits, and ``z``'s is its two terms summed in one order.
    """

    def forward(self, z: Tensor, attn_l: Tensor, attn_r: Tensor) -> np.ndarray:
        z, attn_l, attn_r = z.data, attn_l.data, attn_r.data
        self.save_for_backward(z, attn_l, attn_r)
        out = np.empty((2,) + z.shape[:2], dtype=np.result_type(z, attn_l, attn_r))
        (z * attn_l).sum(axis=-1, out=out[0])
        (z * attn_r).sum(axis=-1, out=out[1])
        return out

    def backward(self, grad_out):
        z, attn_l, attn_r = self.saved
        grad_dst, grad_src = grad_out[0][..., None], grad_out[1][..., None]
        grad_z = None
        if self.needs_input_grad[0]:
            grad_z = grad_dst * attn_l
            grad_z += grad_src * attn_r
        grad_l = (grad_dst * z).sum(axis=0) if self.needs_input_grad[1] else None
        grad_r = (grad_src * z).sum(axis=0) if self.needs_input_grad[2] else None
        return grad_z, grad_l, grad_r


class GATConv(Module):
    """Standard ("DGL-style") GAT layer that keeps per-edge attention coefficients."""

    #: Set by :class:`~repro.nn.gat_fused.FusedGATConv`; passed to the graph's
    #: ``gat_aggregate`` as ``fused``: recompute the per-edge coefficients in
    #: the backward pass instead of keeping them.
    uses_fused_kernel = False

    def __init__(self, in_features: int, out_features: int, num_heads: int = 1):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.num_heads = check_positive_int(num_heads, "num_heads")
        self.fc = Linear(in_features, out_features * num_heads, bias=False, name="gat.fc")
        self.attn_l = Parameter(
            init.xavier_uniform((num_heads, out_features)), name="gat.attn_l"
        )
        self.attn_r = Parameter(
            init.xavier_uniform((num_heads, out_features)), name="gat.attn_r"
        )
        self.bias = Parameter(init.zeros((num_heads * out_features,)), name="gat.bias")

    def project(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Compute ``z`` (N, H, D) and the per-node attention scores (N, H).

        ``a^T (z_i || z_j)`` decomposes into ``a_l · z_i + a_r · z_j``; the two
        per-node dot products are computed once here and combined per edge in
        the message-passing step.
        """
        num_nodes = x.shape[0]
        z = self.fc(x).reshape(num_nodes, self.num_heads, self.out_features)
        scores = AttentionScores.apply(z, self.attn_l, self.attn_r)
        return z, scores[0], scores[1]

    def forward(self, graph, x: Tensor) -> Tensor:
        """Apply the layer on any graph that speaks the aggregation protocol
        (:mod:`repro.graph.aggregation`)."""
        if x.shape[0] != graph.num_nodes:
            raise ValueError(
                f"Feature matrix has {x.shape[0]} rows but graph has {graph.num_nodes} nodes"
            )
        z, score_dst, score_src = self.project(x)
        aggregated = graph.gat_aggregate(z, score_dst, score_src, fused=self.uses_fused_kernel)
        # Flatten heads and add the bias.
        out = aggregated.reshape(aggregated.shape[0], self.num_heads * self.out_features)
        return out + self.bias

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(in={self.in_features}, out={self.out_features}, "
            f"heads={self.num_heads})"
        )
