"""GraphSage convolution (single-machine), paper Eq. 2.

``h_i = σ( W_res · h_i + AGG_{j∈N(i)} W · h_j )``

with ``AGG`` one of:

* ``"mean"`` / ``"sum"`` — linear aggregation; gradients w.r.t. the inputs do
  not depend on the input values, which is why the distributed version of
  this layer is SAR's "case 1": no re-fetch of remote features is needed
  during the backward pass.
* ``"max"`` / ``"min"`` — element-wise pooling; which neighbour attains the
  extremum depends on the *values*, so the distributed backward pass must
  re-fetch remote features — SAR's "case 2", just like attention.

Orientation (DGL's ``lin_before_mp`` rule).  A linear aggregator commutes
with the neighbour projection, ``AGG(x) W == AGG(x W)``, so the layer runs
whichever side is narrower: when ``in_features <= out_features`` it
aggregates ``x`` and projects the aggregated *destination* rows; otherwise
(and always for the pooling aggregators, which do not commute with ``W``) it
projects every *source* row and aggregates the projection.  The rule depends
only on the layer's shapes and aggregator, so every execution path — full
graph, MFG block, layer-wise inference, serving, SAR — takes the same branch.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_positive_int

AGGREGATORS = ("mean", "sum", "max", "min")


class SageConv(Module):
    """GraphSage layer with mean (default), sum, max, or min aggregation."""

    def __init__(self, in_features: int, out_features: int, aggregator: str = "mean",
                 bias: bool = True,
                 activation: Optional[Callable[[Tensor], Tensor]] = None):
        super().__init__()
        if aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, got {aggregator!r}"
            )
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.aggregator = aggregator
        self.activation = activation
        # W in the paper's Eq. 2 (applied to neighbours) and W_res (applied to self).
        self.neighbor_linear = Linear(in_features, out_features, bias=False, name="sage.neigh")
        self.self_linear = Linear(in_features, out_features, bias=bias, name="sage.self")

    @property
    def aggregate_first(self) -> bool:
        """True when the layer aggregates ``x`` and projects afterwards, so
        the neighbour GEMM runs on destination rows and the aggregated
        payload (SAR's case-1 halo) is ``in_features`` wide."""
        return self.aggregator in ("mean", "sum") and self.in_features <= self.out_features

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
        out = self.self_linear(self_rows) + aggregated
        if self.activation is not None:
            out = self.activation(out)
        return out

    def __repr__(self) -> str:
        return (
            f"SageConv(in={self.in_features}, out={self.out_features}, "
            f"aggregator={self.aggregator!r})"
        )

