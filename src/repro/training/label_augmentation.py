"""Label augmentation / masked label prediction (Shi et al., 2020).

The paper trains with the label-augmentation scheme of "Masked Label
Prediction": every epoch a random subset of the *training* nodes gets its
ground-truth label appended (one-hot) to its input features, and the loss is
computed on the remaining training nodes.  At inference time all training
nodes carry their label and predictions are read off the val/test nodes.

The augmentation is purely node-local, so it works unchanged in distributed
training: every worker augments its own partition's rows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive_int, check_probability


class LabelAugmenter:
    """Appends (masked) one-hot labels to node features."""

    def __init__(self, num_classes: int, augment_fraction: float = 0.5):
        self.num_classes = check_positive_int(num_classes, "num_classes")
        self.augment_fraction = check_probability(augment_fraction, "augment_fraction")

    def augmented_dim(self, feature_dim: int) -> int:
        return feature_dim + self.num_classes

    # ------------------------------------------------------------------ #
    def _append_labels(self, features: np.ndarray, labels: np.ndarray,
                       reveal_mask: np.ndarray) -> np.ndarray:
        onehot = np.zeros((features.shape[0], self.num_classes), dtype=features.dtype)
        revealed = np.where(reveal_mask)[0]
        onehot[revealed, labels[revealed]] = 1.0
        return np.concatenate([features, onehot], axis=1)

    def training_batch(self, features: np.ndarray, labels: np.ndarray,
                       train_mask: np.ndarray,
                       rng: Optional[np.random.Generator] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """One training epoch's augmented features and loss mask.

        Returns ``(augmented_features, predict_mask)`` where ``predict_mask``
        selects the training nodes whose labels were *not* revealed (the loss
        is computed on those).
        """
        rng = rng or np.random.default_rng()
        train_mask = np.asarray(train_mask, dtype=bool)
        reveal_mask = train_mask & (rng.random(len(train_mask)) < self.augment_fraction)
        predict_mask = train_mask & ~reveal_mask
        if train_mask.any() and not predict_mask.any():
            # Degenerate draw: every training node was revealed; hold one back
            # so the loss is never empty.
            held_out = np.where(train_mask)[0][0]
            reveal_mask[held_out] = False
            predict_mask[held_out] = True
        return self._append_labels(features, labels, reveal_mask), predict_mask

    def inference_batch(self, features: np.ndarray, labels: np.ndarray,
                        train_mask: np.ndarray) -> np.ndarray:
        """Inference-time features: all training nodes reveal their label."""
        return self._append_labels(features, labels, np.asarray(train_mask, dtype=bool))


class NoLabelAugmenter:
    """Drop-in replacement that performs no augmentation (keeps trainer code uniform)."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes

    def augmented_dim(self, feature_dim: int) -> int:
        return feature_dim

    def training_batch(self, features, labels, train_mask, rng=None):
        return features, np.asarray(train_mask, dtype=bool)

    def inference_batch(self, features, labels, train_mask):
        return features
