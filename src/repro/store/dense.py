"""Dense in-memory backend: the zero-copy wrapper over today's feature matrix.

:class:`DenseStore` is the identity backend — it holds the ``(N, F)`` matrix
the stack always had and serves :meth:`gather` by NumPy indexing.  Its value
is the *interface*: consumers written against :class:`~repro.store.base.
FeatureStore` run unchanged over the partitioned KV store or learnable sparse
embeddings, and the dense backend keeps the fast path exactly as fast as
direct indexing was (``gather(None)`` returns the matrix itself, no copy).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.store.base import FeatureStore


class DenseStore(FeatureStore):
    """Feature rows backed by one resident ``(num_rows, dim)`` matrix.

    Parameters
    ----------
    matrix:
        The 2-D feature matrix.  Held by reference (zero-copy): the caller
        may swap in new contents via :meth:`replace` (which bumps
        :attr:`version`) but must not mutate the array in place without a
        :meth:`bump_version` — downstream caches key on the stamp.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"DenseStore needs a 2-D matrix, got shape {matrix.shape}")
        self._matrix = matrix
        self._version = 1

    # -- FeatureStore interface ------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._matrix.dtype

    @property
    def version(self) -> int:
        return self._version

    def gather(self, node_ids: Optional[np.ndarray]) -> np.ndarray:
        if node_ids is None:
            return self._matrix
        return self._matrix[self._check_ids(node_ids)]

    # -- mutation --------------------------------------------------------- #
    def replace(self, matrix: np.ndarray) -> int:
        """Swap the backing matrix (same shape class) and bump the version."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(
                f"replacement must be 2-D with {self.dim} columns, got {matrix.shape}"
            )
        self._matrix = matrix
        return self.bump_version()

    def bump_version(self) -> int:
        """Advance the version stamp after an in-place mutation."""
        self._version += 1
        return self._version
