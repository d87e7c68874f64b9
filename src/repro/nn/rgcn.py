"""Relational graph convolution (R-GCN) layer — paper Appendix A, Eq. 4/5.

``h_i^{l+1} = σ( Σ_r Σ_{j ∈ N_r(i)} (1/|N_r(i)|) W_r h_j  +  W_0 h_i + b )``

with optional basis decomposition ``W_r = Σ_b a_{rb} V_b`` to share parameters
across relations.  The bias ``b`` is always on; the activation ``σ`` is the
models' (:func:`~repro.nn.norm.layer_epilogue`), not the layer's.  Because
the aggregation has *learnable* parameters (``W_r``), backpropagating to them
requires the values of the layer inputs — this is SAR's "case 2", so the
distributed variant re-fetches remote features during the backward pass
(just like GAT).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import init
from repro.tensor.tensor import Tensor
from repro.utils.validation import check_positive_int


class RelGraphConv(Module):
    """R-GCN layer over a heterogeneous graph with named relations."""

    def __init__(self, in_features: int, out_features: int, relation_names: Sequence[str],
                 num_bases: Optional[int] = None):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.relation_names: List[str] = list(relation_names)
        if not self.relation_names:
            raise ValueError("RelGraphConv needs at least one relation")
        num_relations = len(self.relation_names)
        if num_bases is not None:
            num_bases = check_positive_int(num_bases, "num_bases")
            if num_bases > num_relations:
                raise ValueError(
                    f"num_bases ({num_bases}) cannot exceed the number of relations ({num_relations})"
                )
        self.num_bases = num_bases

        if num_bases is None:
            # One independent weight matrix per relation, stored flattened so a
            # single parameter covers all relations.
            self.weight = Parameter(
                init.xavier_uniform((num_relations, in_features * out_features)),
                name="rgcn.weight",
            )
            self.basis = None
            self.coefficients = None
        else:
            # Basis decomposition (Eq. 5): W_r = Σ_b a_{rb} V_b.
            self.basis = Parameter(
                init.xavier_uniform((num_bases, in_features * out_features)), name="rgcn.basis"
            )
            self.coefficients = Parameter(
                init.xavier_uniform((num_relations, num_bases)), name="rgcn.coefficients"
            )
            self.weight = None

        self.self_linear = Linear(in_features, out_features, bias=False, name="rgcn.self")
        self.bias = Parameter(init.zeros((out_features,)), name="rgcn.bias")

    # ------------------------------------------------------------------ #
    def relation_weights(self) -> Tensor:
        """Per-relation weight matrices as a flattened ``(R, in·out)`` tensor."""
        if self.weight is not None:
            return self.weight
        return self.coefficients @ self.basis

    # ------------------------------------------------------------------ #
    def forward(self, graph, x: Tensor) -> Tensor:
        """Apply the layer on any relational graph that speaks the
        aggregation protocol (:mod:`repro.graph.aggregation`).

        The whole relational aggregation — including applying ``W_r`` to
        neighbour features — is the graph's ``rgcn_aggregate``, because on a
        distributed handle the aggregation's gradient w.r.t. ``W_r`` needs
        those (remotely fetched) neighbour features: SAR must re-fetch them
        in the backward pass (case 2).
        """
        if x.shape[0] != graph.num_nodes:
            raise ValueError(
                f"Feature matrix has {x.shape[0]} rows but graph has {graph.num_nodes} nodes"
            )
        out = graph.rgcn_aggregate(
            x, self.relation_weights(), self.relation_names,
            self.in_features, self.out_features,
        )
        out = out + self.self_linear(graph.gather_dst(x))
        return out + self.bias

    def __repr__(self) -> str:
        return (
            f"RelGraphConv(in={self.in_features}, out={self.out_features}, "
            f"relations={len(self.relation_names)}, num_bases={self.num_bases})"
        )
