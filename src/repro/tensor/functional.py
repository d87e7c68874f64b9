"""The loss: a numerically stable softmax cross-entropy.

The models' activations and dropout run inside one
:func:`~repro.nn.norm.layer_epilogue` node per layer boundary, so the loss is
the one functional op left here.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Function, Tensor


# --------------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------------- #
class CrossEntropy(Function):
    """Softmax cross-entropy over integer class labels.

    ``reduction`` may be ``"mean"``, ``"sum"`` or ``"none"``.  The SAR
    distributed trainer uses ``reduction="sum"`` locally and divides by the
    *global* number of labelled nodes after the parameter-gradient allreduce,
    so the distributed loss matches single-machine training exactly.
    """

    def forward(self, logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if logits.ndim != 2:
            raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"labels must be 1-D with length {logits.shape[0]}, got shape {labels.shape}"
            )
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"Unknown reduction {reduction!r}")
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - logsumexp
        n = logits.shape[0]
        losses = -log_probs[np.arange(n), labels]
        self.save_for_backward(log_probs, labels, reduction)
        if reduction == "mean":
            return np.asarray(losses.mean(), dtype=logits.dtype)
        if reduction == "sum":
            return np.asarray(losses.sum(), dtype=logits.dtype)
        return losses.astype(logits.dtype)

    def backward(self, grad_out):
        log_probs, labels, reduction = self.saved
        n = log_probs.shape[0]
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        if reduction == "mean":
            grad *= np.asarray(grad_out) / n
        elif reduction == "sum":
            grad *= np.asarray(grad_out)
        else:
            grad *= np.asarray(grad_out)[:, None]
        return (grad,)


def cross_entropy(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    return CrossEntropy.apply(logits, np.asarray(labels), reduction)
