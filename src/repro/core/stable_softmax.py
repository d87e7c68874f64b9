"""Numerically stable running softmax for incremental attention aggregation.

SAR aggregates the attention-weighted neighbour sum one remote partition at a
time, so the usual "subtract the max before exponentiating" trick cannot be
applied directly — the maximum over *all* of a node's incoming edges is not
known until the last partition has been processed.  Section 3.4 of the paper
keeps a *running* maximum instead: whenever a new block raises the maximum,
the already-accumulated numerator and denominator are rescaled by
``exp(old_max − new_max)``.

:class:`RunningSoftmaxAccumulator` implements exactly that scheme (the same
idea as online/streaming softmax in FlashAttention-style kernels).  Setting
``stable=False`` reproduces the naive accumulation the paper warns about: it
overflows and destabilizes training as soon as attention logits are large.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.edge_plan import EdgePlan

_TINY = np.float64(np.finfo(np.float32).tiny)


class RunningSoftmaxAccumulator:
    """Accumulates ``Σ_e softmax(e) · v_e`` over edge blocks arriving sequentially.

    Parameters
    ----------
    num_nodes:
        Number of destination nodes (rows of the accumulated output).
    num_heads:
        Number of attention heads.
    feature_dim:
        Dimensionality of the aggregated values per head.
    dtype:
        Floating dtype of the accumulators.
    stable:
        Use the running-max rescaling scheme (default).  ``False`` accumulates
        raw exponentials, which is only safe for small logits.
    """

    def __init__(self, num_nodes: int, num_heads: int, feature_dim: int,
                 dtype=np.float32, stable: bool = True):
        self.num_nodes = num_nodes
        self.num_heads = num_heads
        self.feature_dim = feature_dim
        self.stable = stable
        self.dtype = dtype
        self.running_max = np.full((num_nodes, num_heads), -np.inf, dtype=dtype)
        self.numerator = np.zeros((num_nodes, num_heads, feature_dim), dtype=dtype)
        self.denominator = np.zeros((num_nodes, num_heads), dtype=dtype)

    # ------------------------------------------------------------------ #
    def add_block_sorted(self, logits: np.ndarray, values: np.ndarray,
                         plan: EdgePlan) -> None:
        """Fold one edge block whose ``(E_block, H)`` logits are in ``plan``'s
        destination-sorted edge space; every per-edge step stays there, so
        the block pays no ``values[order]`` gather."""
        self._check_heads(logits)
        if self.stable:
            safe_max = self._raise_max(plan.segment_max_sorted(logits))
            weights = np.exp(logits - plan.expand_dst(safe_max))
        else:
            weights = np.exp(logits)
        self.denominator += plan.segment_sum_sorted(weights)
        self.numerator += plan.u_mul_e_sum_sorted(values, weights)

    def _check_heads(self, logits: np.ndarray) -> None:
        if logits.shape[1] != self.num_heads:
            raise ValueError(
                f"logits has {logits.shape[1]} heads, accumulator expects {self.num_heads}"
            )

    def _raise_max(self, block_max: np.ndarray) -> np.ndarray:
        """Raise the running maximum to cover ``block_max`` and rescale what
        is already accumulated; returns the new maximum with ``-inf`` → 0."""
        new_max = np.maximum(self.running_max, block_max)
        # Nodes that still have no incoming edges keep -inf; exp(-inf - -inf)
        # would be NaN, so rescaling is guarded.
        safe_new_max = np.where(np.isfinite(new_max), new_max, 0.0)
        rescale = np.where(
            np.isfinite(self.running_max),
            np.exp(self.running_max - safe_new_max),
            0.0,
        ).astype(self.dtype)
        self.numerator *= rescale[:, :, None]
        self.denominator *= rescale
        self.running_max = new_max
        return safe_new_max

    # ------------------------------------------------------------------ #
    def finalize(self) -> np.ndarray:
        """Return the normalized aggregation ``numerator / denominator``."""
        denom = np.maximum(self.denominator, _TINY).astype(self.dtype)
        return self.numerator / denom[:, :, None]

    def state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(running_max, denominator)`` — what the backward pass needs
        to rematerialize per-edge attention coefficients block by block."""
        return self.running_max, np.maximum(self.denominator, _TINY).astype(self.dtype)
