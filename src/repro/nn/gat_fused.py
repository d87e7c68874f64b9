"""GAT with the fused attention kernel (paper §3.3).

The standard GAT implementation materializes the per-edge attention logits
and the normalized attention coefficients as ``(E, H)`` tensors, writes them
to memory in the forward pass, and reads them back in the backward pass.
The fused kernel computes attention coefficients *on the fly* while
aggregating neighbour features:

* forward: one pass over the edges that simultaneously computes the stable
  softmax statistics and the weighted feature sums; nothing edge-sized is
  saved for backward (only the node-level inputs, which autograd keeps alive
  anyway).
* backward: the attention coefficients are *recomputed* from the saved
  node-level projections and then used to push gradients to the neighbour
  features and attention scores.

This trades extra backward compute (growing with the number of heads) for a
much smaller forward-pass memory footprint — exactly the trade-off shown in
the paper's Figure 2 — and synergizes with SAR, which has to rematerialize
these intermediates during the backward pass anyway.  The kernel itself is
:class:`~repro.tensor.sparse.FusedGATAggregation`; the layer only asks for
it through ``gat_aggregate(..., fused=True)``.
"""

from __future__ import annotations

from repro.nn.gat import GATConv


class FusedGATConv(GATConv):
    """GAT layer using the fused attention kernel (same parameters as :class:`GATConv`)."""

    uses_fused_kernel = True
