"""Input-validation helpers shared across the library.

These raise early, descriptive errors instead of letting malformed inputs
propagate into NumPy broadcasting surprises deep inside the autograd engine.
"""

from __future__ import annotations

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_1d_int_array(arr, name: str, max_value: int | None = None) -> np.ndarray:
    """Validate and convert ``arr`` to a 1-D int64 array.

    Parameters
    ----------
    arr:
        Array-like of integer indices.
    name:
        Name used in error messages.
    max_value:
        If given, all entries must lie in ``[0, max_value)``.
    """
    out = np.asarray(arr)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if out.size and out.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an integer array, got dtype {out.dtype}")
    out = out.astype(np.int64, copy=False)
    if max_value is not None and out.size:
        if out.size == 1:  # one id (a single-node request) needs no reductions
            lo = hi = int(out[0])
        else:
            lo, hi = int(out.min()), int(out.max())
        if lo < 0 or hi >= max_value:
            raise ValueError(
                f"{name} entries must be in [0, {max_value}), found range [{lo}, {hi}]"
            )
    return out


def check_strictly_increasing(rows: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``rows`` is a non-negative, strictly increasing 1-D index
    array (``np.unique`` output) and return it.

    Such a row set has no duplicates, so ``target[rows] += values`` is a
    correct scatter-add — the check is made once, where the row set is built,
    so that the per-step scatters need not fall back to ``np.add.at``.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {rows.shape}")
    if len(rows) and (rows[0] < 0 or not (rows[1:] > rows[:-1]).all()):
        raise ValueError(f"{name} must be non-negative and strictly increasing")
    return rows

