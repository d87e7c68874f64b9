"""Optimizers and the learning-rate schedule.

The paper trains for 100 epochs with Adam and a decaying learning rate; the
trainer in :mod:`repro.training.trainer` combines :class:`Adam` (and
:class:`SparseAdam` for a trainable feature store) with :class:`CosineDecay`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) over a flat list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("Optimizer received an empty parameter list")
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise TypeError("Optimizer parameters must be Tensors with requires_grad=True")
        if lr <= 0:
            raise ValueError(f"Learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.initial_lr = float(lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict) -> None:
        self.lr = float(state["lr"])
        self._step_count = int(state["step_count"])
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]


# --------------------------------------------------------------------------- #
# the sparse optimizer (trainable feature stores)
# --------------------------------------------------------------------------- #
class SparseAdam:
    """Row-sparse Adam over a *trainable feature store* instead of Tensors.

    A trainable store (``repro.store.SparseEmbeddingStore``) accumulates
    per-row gradients during backward; :meth:`step` pulls them **coalesced**
    (duplicate rows pre-summed), updates only the touched rows and their
    per-row optimizer state, and lets the store bump its version so
    downstream caches invalidate.  Cost per step is ``O(touched_rows)``
    regardless of table height — the whole point versus putting the table
    into a dense optimizer.

    Each row keeps its own ``t`` (number of times it has been updated), so
    the bias correction ``1 - beta^t`` is exact for rows that are touched
    rarely — a global step count would under-correct cold rows' moments and
    make early updates on them too small.  Moments of untouched rows are
    left untouched (no decay while absent), matching ``torch.optim.
    SparseAdam``.

    The store is duck-typed (``pending_gradients`` / ``clear_pending`` /
    ``apply_row_update`` / ``trainable``), keeping the tensor layer free of a
    dependency on :mod:`repro.store`.  The ``lr`` and ``initial_lr``
    attributes match :class:`Adam`'s, so :class:`CosineDecay` drives it
    unchanged.
    """

    _REQUIRED = ("pending_gradients", "clear_pending", "apply_row_update")

    def __init__(self, store, lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8):
        if not getattr(store, "trainable", False):
            raise TypeError(
                f"{type(store).__name__} is not a trainable feature store"
            )
        for attr in self._REQUIRED:
            if not callable(getattr(store, attr, None)):
                raise TypeError(
                    f"trainable store must provide {attr}(); "
                    f"{type(store).__name__} does not"
                )
        if lr <= 0:
            raise ValueError(f"Learning rate must be positive, got {lr}")
        self.store = store
        self.lr = float(lr)
        self.initial_lr = float(lr)
        self.steps_taken = 0
        self.rows_updated = 0
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self._m = np.zeros((store.num_rows, store.dim), dtype=np.float32)
        self._v = np.zeros((store.num_rows, store.dim), dtype=np.float32)
        self._t = np.zeros(store.num_rows, dtype=np.int64)

    def zero_grad(self) -> None:
        """Drop the store's pending gradients."""
        self.store.clear_pending()

    def step(self, grad_scale: float = 1.0) -> int:
        """Apply one update; returns the number of rows touched.

        ``grad_scale`` multiplies the pending gradients before the update —
        the trainers pass ``1 / batch_count`` so the sparse rows see the same
        mean-loss scaling the dense parameters get via ``param.grad /=
        count``.
        """
        ids, grads = self.store.pending_gradients()
        if len(ids):
            if grad_scale != 1.0:
                grads = grads * grads.dtype.type(grad_scale)
            delta = self._delta(ids, grads)
            self.store.apply_row_update(ids, delta)
            self.steps_taken += 1
            self.rows_updated += len(ids)
        self.store.clear_pending()
        return len(ids)

    def _delta(self, ids: np.ndarray, grads: np.ndarray) -> np.ndarray:
        grads = grads.astype(np.float32, copy=False)
        self._t[ids] += 1
        t = self._t[ids]
        m = self.beta1 * self._m[ids] + (1.0 - self.beta1) * grads
        v = self.beta2 * self._v[ids] + (1.0 - self.beta2) * grads * grads
        self._m[ids] = m
        self._v[ids] = v
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        m_hat = m / bias1[:, None]
        v_hat = v / bias2[:, None]
        delta = -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return delta.astype(self.store.dtype, copy=False)


# --------------------------------------------------------------------------- #
# the learning-rate schedule
# --------------------------------------------------------------------------- #
class CosineDecay:
    """Cosine annealing from the optimizer's initial learning rate to ``min_lr``.

    Call :meth:`step` once per epoch *after* ``optimizer.step``; it drives
    any optimizer with ``lr`` and ``initial_lr`` attributes (:class:`Adam`,
    :class:`SparseAdam`).
    """

    def __init__(self, optimizer, total_epochs: int, min_lr: float = 0.0):
        if total_epochs <= 0:
            raise ValueError(f"total_epochs must be positive, got {total_epochs}")
        self.optimizer = optimizer
        self.base_lr = optimizer.initial_lr
        self.epoch = 0
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)

    def get_lr(self, epoch: int) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + math.cos(math.pi * progress))

    def step(self) -> float:
        self.epoch += 1
        lr = self.get_lr(self.epoch)
        self.optimizer.lr = lr
        return lr
