"""NumPy-backed tensor library with reverse-mode autodiff.

This package is the repository's substitute for PyTorch, scoped to what the
models run: the :class:`~repro.tensor.tensor.Tensor` type, the dense ops its
layers call (``+``, ``*``, ``**``, ``@``, ``sum``, ``reshape``, slices and row
gathers), the sparse message-passing ops, the loss, parameter initializers,
the optimizer, and the per-worker memory tracker the benchmarks use to
reproduce the paper's peak-memory measurements.  It is not a general
autograd library: an op no model runs is not kept.
"""

from repro.tensor.tensor import (
    Tensor,
    Function,
    no_grad,
    grad_enabled,
    DEFAULT_DTYPE,
)
from repro.tensor.memory import MemoryTracker, track_memory, active_tracker, no_tracking
from repro.tensor import edge_plan
from repro.tensor.edge_plan import EdgePlan
from repro.tensor import ops
from repro.tensor import functional
from repro.tensor import sparse
from repro.tensor import init
from repro.tensor import optim
from repro.tensor.gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "grad_enabled",
    "DEFAULT_DTYPE",
    "MemoryTracker",
    "track_memory",
    "active_tracker",
    "no_tracking",
    "edge_plan",
    "EdgePlan",
    "ops",
    "functional",
    "sparse",
    "init",
    "optim",
    "check_gradients",
    "numerical_gradient",
]
