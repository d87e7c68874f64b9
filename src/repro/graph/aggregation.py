"""The aggregation protocol every graph type speaks.

A GNN layer never asks what kind of graph it was given.  It calls
``aggregate_neighbors`` / ``gat_aggregate`` (over the relation ``None`` of a
homogeneous graph) or ``rgcn_aggregate`` (over named relations) for the
neighbour aggregation and ``gather_dst`` for its self/residual term, and the
graph runs them its own way: single-machine graphs and compacted MFG blocks
through their per-relation :class:`~repro.tensor.edge_plan.EdgePlan` (the
mixin below), distributed handles (:mod:`repro.core.dist_graph`) through the
SAR / domain-parallel engine.  That is the paper's "the model code is
identical in all settings".

``gather_dst(x)`` maps a per-source-row tensor to the output rows: an MFG
block gathers its destination rows, every other graph returns ``x`` itself.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.tensor import ops
from repro.tensor.edge_plan import EdgePlan
from repro.tensor.sparse import GATAggregation, neighbor_aggregate, pool_aggregate
from repro.tensor.tensor import Tensor


def relation_entry(per_relation: Mapping[Optional[str], Any], relation: Optional[str]) -> Any:
    """``per_relation[relation]``, or the ``KeyError`` every graph type raises
    for a relation it lacks (e.g. a SAGE layer's ``None`` on a relational graph)."""
    try:
        return per_relation[relation]
    except KeyError:
        raise KeyError(
            f"no relation {relation!r}; this graph has relations {list(per_relation)}"
        ) from None


class NeighborAggregation:
    """The protocol over ``self.relation_plan(relation)``, for a class holding
    ``relation_edges = {relation: (src, dst)}`` (mixed into
    :class:`~repro.graph.graph.Graph` and :class:`~repro.graph.mfg.MFGBlock`).

    ``aggregate_neighbors`` and ``gat_aggregate`` run over :meth:`plan`, the
    relation ``None``'s plan, and raise ``KeyError`` naming the relations on
    a relational graph.
    """

    def gather_dst(self, x):
        return x

    def plan(self) -> EdgePlan:
        """The edge plan of the relation ``None`` (a homogeneous graph's)."""
        return self.relation_plan(None)

    def _edges_of(self, relation: Optional[str]) -> Tuple[np.ndarray, np.ndarray]:
        return relation_entry(self.relation_edges, relation)

    def aggregate_neighbors(self, z: Tensor, op: str = "mean") -> Tensor:
        """Mean (SpMM) or max (pooling) of ``z`` over in-neighbours."""
        if op == "max":
            return pool_aggregate(z, self.plan())
        if op == "mean":
            return neighbor_aggregate(z, self.plan())
        raise ValueError(f"op must be 'mean' or 'max', got {op!r}")

    def gat_aggregate(self, z: Tensor, score_dst: Tensor, score_src: Tensor,
                      fused: bool = False) -> Tensor:
        """Attention aggregation; ``fused`` recomputes the per-edge
        coefficients in the backward pass instead of keeping them."""
        # Destination scores live in the destination row space.
        return GATAggregation.apply(z, self.gather_dst(score_dst), score_src, self.plan(),
                                    fused)

    def rgcn_aggregate(self, x: Tensor, relation_weights: Tensor,
                       relation_names: Sequence[str], in_features: int,
                       out_features: int) -> Tensor:
        """``Σ_r mean_{j ∈ N_r(i)} x_j W_r`` with ``W_r`` row ``r`` of the
        flattened ``(R, in·out)`` ``relation_weights``."""
        out = None
        for index, relation in enumerate(relation_names):
            w_r = ops.slice_(relation_weights, index).reshape(in_features, out_features)
            contribution = neighbor_aggregate(x @ w_r, self.relation_plan(relation))
            out = contribution if out is None else out + contribution
        return out
