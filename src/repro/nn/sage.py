"""GraphSage convolution (single-machine), paper Eq. 2.

``h_i = W_res · h_i + AGG_{j∈N(i)} W · h_j``

with ``AGG`` one of:

* ``"mean"`` — linear aggregation; gradients w.r.t. the inputs do not depend
  on the input values, which is why the distributed version of this layer is
  SAR's "case 1": no re-fetch of remote features is needed during the
  backward pass.
* ``"max"`` — element-wise pooling; which neighbour attains the maximum
  depends on the *values*, so the distributed backward pass must re-fetch
  remote features — SAR's "case 2", just like attention.

The layer has no activation of its own: the models apply the non-linearity
between layers (:func:`~repro.nn.norm.layer_epilogue`), and ``W_res`` always
carries a bias.

Orientation (DGL's ``lin_before_mp`` rule).  The mean commutes with the
neighbour projection, ``AGG(x) W == AGG(x W)``, so the layer runs whichever
side is narrower: when ``in_features <= out_features`` it aggregates ``x``
and projects the aggregated *destination* rows; otherwise (and always for
max pooling, which does not commute with ``W``) it projects every *source*
row and aggregates the projection.  The rule depends only on the layer's
shapes and aggregator, so every execution path — full graph, MFG block,
layer-wise inference, serving, SAR — takes the same branch.
"""

from __future__ import annotations

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_positive_int

AGGREGATORS = ("mean", "max")


class SageConv(Module):
    """GraphSage layer with mean (default) or max aggregation."""

    def __init__(self, in_features: int, out_features: int, aggregator: str = "mean"):
        super().__init__()
        if aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, got {aggregator!r}"
            )
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.aggregator = aggregator
        # W in the paper's Eq. 2 (applied to neighbours) and W_res (applied to self).
        self.neighbor_linear = Linear(in_features, out_features, bias=False, name="sage.neigh")
        self.self_linear = Linear(in_features, out_features, name="sage.self")

    @property
    def aggregate_first(self) -> bool:
        """True when the layer aggregates ``x`` and projects afterwards, so
        the neighbour GEMM runs on destination rows and the aggregated
        payload (SAR's case-1 halo) is ``in_features`` wide."""
        return self.aggregator == "mean" and self.in_features <= self.out_features

    def forward(self, graph, x: Tensor) -> Tensor:
        """Apply the layer.

        ``graph`` is anything that speaks the aggregation protocol
        (:mod:`repro.graph.aggregation`): a single-machine
        :class:`~repro.graph.graph.Graph`, a compacted per-layer
        :class:`~repro.graph.mfg.MFGBlock` (``x`` holds the block's required
        source rows and the output the required destination rows), or a
        distributed graph handle (``repro.core.DistributedGraph``, ``x`` the
        local partition's rows, the aggregation run by the SAR /
        domain-parallel engine) — the model code is identical in all
        settings, as in the paper.  Whether the neighbour projection runs
        before or after the aggregation is :attr:`aggregate_first`'s rule
        (module docstring).
        """
        if x.shape[0] != graph.num_nodes:
            raise ValueError(
                f"Feature matrix has {x.shape[0]} rows but graph has {graph.num_nodes} nodes"
            )
        aggregate_first = self.aggregate_first
        z = x if aggregate_first else self.neighbor_linear(x)
        aggregated = graph.aggregate_neighbors(z, op=self.aggregator)
        self_rows = graph.gather_dst(x)
        if aggregate_first:
            aggregated = self.neighbor_linear(aggregated)
        return self.self_linear(self_rows) + aggregated

    def __repr__(self) -> str:
        return (
            f"SageConv(in={self.in_features}, out={self.out_features}, "
            f"aggregator={self.aggregator!r})"
        )

