"""Neural-network functional operations (activations, dropout, the loss).

These complement the primitive ops in :mod:`repro.tensor.ops` with the fused
operations the models need: the ReLU and ELU activations of GraphSage, GAT
and R-GCN, dropout with an explicit training flag, and a numerically stable
softmax cross-entropy.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Function, Tensor
from repro.utils.seed import get_rng
from repro.utils.validation import check_probability


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
class ReLU(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        mask = a.data > 0
        self.save_for_backward(mask)
        return a.data * mask

    def backward(self, grad_out):
        (mask,) = self.saved
        return (grad_out * mask,)


class ELU(Function):
    """``x`` where ``x > 0``, ``alpha·(eˣ − 1)`` elsewhere.

    At ``alpha == 1`` (GAT's) the negative branch ``neg`` is exactly ``+0``
    wherever ``x > 0`` and ``neg + 1`` exactly ``1`` there, so
    ``max(x, 0) + neg`` and ``grad_out * (neg + 1)`` are the selects bit for
    bit, without ``np.where``'s cost on a random mask.
    """

    def forward(self, a: Tensor, alpha: float = 1.0) -> np.ndarray:
        x = a.data
        neg = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
        mask = None if alpha == 1.0 else x > 0
        self.save_for_backward(mask, neg, alpha)
        if mask is None:
            return np.maximum(x, 0.0) + neg
        return np.where(mask, x, neg)

    def backward(self, grad_out):
        mask, neg, alpha = self.saved
        if mask is None:
            return (grad_out * (neg + alpha),)
        return (np.where(mask, grad_out, grad_out * (neg + alpha)),)


def relu(a: Tensor) -> Tensor:
    return ReLU.apply(a)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    return ELU.apply(a, alpha)


# --------------------------------------------------------------------------- #
# dropout
# --------------------------------------------------------------------------- #
class Dropout(Function):
    def forward(self, a: Tensor, p: float, training: bool) -> np.ndarray:
        p = check_probability(p, "dropout probability")
        if not training or p == 0.0:
            self.save_for_backward(None)
            return a.data
        keep = 1.0 - p
        mask = (get_rng().random(a.shape) < keep).astype(a.data.dtype) / keep
        self.save_for_backward(mask)
        return a.data * mask

    def backward(self, grad_out):
        (mask,) = self.saved
        if mask is None:
            return (grad_out,)
        return (grad_out * mask,)


def dropout(a: Tensor, p: float = 0.5, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by ``1 / (1 - p)`` during training."""
    return Dropout.apply(a, p, training)


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
