"""Correct & Smooth post-processing (Huang et al., 2020).

The paper runs C&S on the trained model's soft predictions to squeeze out an
extra accuracy point or two (Table 1), and notes that it is implemented
"within the same framework as SAR" because both C&S stages are plain
non-learnable message propagation — the same neighbourhood aggregation SAR
already performs, minus trainable parameters and a backward pass.

The implementation below therefore only needs a *propagate* primitive:

* on a single-machine :class:`~repro.graph.graph.Graph` it is a sparse
  mat-vec with the symmetric-normalized adjacency;
* on a :class:`~repro.core.dist_graph.DistributedGraph` it is the handle's
  ``propagate`` method (sequential halo fetches, no autograd).

Stages (per the original paper):

1. **Correct** — propagate the residual error on the training nodes through
   the graph and add a scaled version of it to the soft predictions.
2. **Smooth**  — clamp the training rows to their ground-truth one-hot labels
   and run label propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.utils.validation import check_positive_int

#: Mixing coefficient of both stages' propagation (the original paper's 0.8).
ALPHA = 0.8


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.maximum(exp.sum(axis=1, keepdims=True), np.finfo(values.dtype).tiny)


def _propagate(graph, values: np.ndarray) -> np.ndarray:
    """One step of symmetric-normalized propagation on either graph type."""
    if isinstance(graph, Graph):
        adj = graph.adjacency(normalization="sym")
        return np.asarray(adj @ values)
    return graph.propagate(values)


@dataclass
class CorrectAndSmooth:
    """C&S post-processor.

    Each stage's number of propagation iterations is configurable; both mix
    with :data:`ALPHA`, and corrections are scaled by the mean training-error
    magnitude (the original paper's "autoscale").
    """

    num_correct_iters: int = 20
    num_smooth_iters: int = 20

    def __post_init__(self):
        check_positive_int(self.num_correct_iters, "num_correct_iters")
        check_positive_int(self.num_smooth_iters, "num_smooth_iters")

    # ------------------------------------------------------------------ #
    def correct(self, graph, soft_predictions: np.ndarray, labels: np.ndarray,
                train_mask: np.ndarray) -> np.ndarray:
        """Stage 1: propagate the training-node residual errors."""
        train_mask = np.asarray(train_mask, dtype=bool)
        num_classes = soft_predictions.shape[1]
        error = np.zeros_like(soft_predictions)
        if train_mask.any():
            onehot = np.eye(num_classes, dtype=soft_predictions.dtype)[labels[train_mask]]
            error[train_mask] = onehot - soft_predictions[train_mask]
        residual = error.copy()
        for _ in range(self.num_correct_iters):
            residual = ALPHA * _propagate(graph, residual) + (1.0 - ALPHA) * error
        error_norm = float(np.abs(error[train_mask]).sum()) if train_mask.any() else 0.0
        train_count = float(train_mask.sum())
        if not isinstance(graph, Graph) and hasattr(graph, "comm"):
            # Distributed: the scale must be computed over the *global*
            # training set so every worker applies the same correction.
            reduced = graph.comm.allreduce(
                np.asarray([error_norm, train_count], dtype=np.float64),
                op="sum", tag="correct_and_smooth",
            )
            error_norm, train_count = float(reduced[0]), float(reduced[1])
        if train_count > 0:
            scale = error_norm / train_count
            denom = np.maximum(np.abs(residual).sum(axis=1, keepdims=True), 1e-9)
            correction = scale * residual / denom * num_classes
        else:
            correction = residual
        return soft_predictions + correction

    def smooth(self, graph, corrected: np.ndarray, labels: np.ndarray,
               train_mask: np.ndarray) -> np.ndarray:
        """Stage 2: label propagation with training rows clamped to ground truth."""
        train_mask = np.asarray(train_mask, dtype=bool)
        num_classes = corrected.shape[1]
        base = corrected.copy()
        if train_mask.any():
            base[train_mask] = np.eye(num_classes, dtype=corrected.dtype)[labels[train_mask]]
        smoothed = base.copy()
        for _ in range(self.num_smooth_iters):
            smoothed = ALPHA * _propagate(graph, smoothed) + (1.0 - ALPHA) * base
        return smoothed

    # ------------------------------------------------------------------ #
    def __call__(self, graph, logits: np.ndarray, labels: np.ndarray,
                 train_mask: np.ndarray) -> np.ndarray:
        """Run both stages on raw logits; returns refined class scores."""
        soft = _softmax_rows(np.asarray(logits, dtype=np.float32))
        corrected = self.correct(graph, soft, labels, train_mask)
        return self.smooth(graph, corrected, labels, train_mask)
