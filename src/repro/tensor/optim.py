"""Optimizers and the learning-rate schedule.

The paper trains for 100 epochs with Adam and a decaying learning rate; the
trainer in :mod:`repro.training.trainer` combines :class:`Adam` with
:class:`CosineDecay`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

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


# --------------------------------------------------------------------------- #
# the learning-rate schedule
# --------------------------------------------------------------------------- #
class CosineDecay:
    """Cosine annealing from the optimizer's initial learning rate to ``min_lr``.

    Call :meth:`step` once per epoch *after* ``optimizer.step``; it drives
    any optimizer with ``lr`` and ``initial_lr`` attributes (:class:`Adam`).
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
