"""Parameter initializers (Glorot uniform / constant).

Initializers return plain NumPy arrays; :class:`repro.nn.module.Parameter`
wraps them into gradient-tracking tensors.  All randomness comes from the
library-wide generator (see :mod:`repro.utils.seed`).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.tensor.tensor import DEFAULT_DTYPE
from repro.utils.seed import get_rng


def _fan_in_fan_out(shape: Sequence[int]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("Initializer shapes must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: Sequence[int], gain: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return get_rng().uniform(-limit, limit, size=shape).astype(dtype)


def zeros(shape: Sequence[int], dtype=DEFAULT_DTYPE) -> np.ndarray:
    """All-zeros initialization (biases, BatchNorm shift)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape: Sequence[int], dtype=DEFAULT_DTYPE) -> np.ndarray:
    """All-ones initialization (BatchNorm scale)."""
    return np.ones(shape, dtype=dtype)
