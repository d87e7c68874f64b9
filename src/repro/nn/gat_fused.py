"""GAT with attention-matrix rematerialization (paper §3.3).

The standard layer keeps the per-edge attention coefficients as an
``(E, H)`` tensor from the forward pass to the backward pass.  This one runs
the same attention op with ``fused=True``:

* forward: the stable softmax statistics and the weighted feature sums are
  computed exactly as for :class:`~repro.nn.gat.GATConv`, but nothing
  edge-sized is saved for backward (only the node-level inputs, which the
  standard layer saves too);
* backward: the attention coefficients are *recomputed* from the saved
  node-level projections and then used to push gradients to the neighbour
  features and attention scores.

This trades extra backward compute (growing with the number of heads) for a
smaller forward-pass memory footprint — the trade-off of the paper's
Figure 2 — and synergizes with SAR, which has to rematerialize these
intermediates during the backward pass anyway.  Outputs and gradients are
bit-identical to :class:`~repro.nn.gat.GATConv`'s; the op is
:class:`~repro.tensor.sparse.GATAggregation` on a single machine and
:class:`~repro.core.gat_dist.GATKernel` under SAR / domain parallelism.
"""

from __future__ import annotations

from repro.nn.gat import GATConv


class FusedGATConv(GATConv):
    """GAT layer using the fused attention kernel (same parameters as :class:`GATConv`)."""

    uses_fused_kernel = True
