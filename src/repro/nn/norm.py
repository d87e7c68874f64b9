"""Batch normalization, including SAR's distributed variant (paper §3.4).

In distributed full-batch training the node-feature matrix ``H`` is split
row-wise across workers.  :class:`DistributedBatchNorm` computes the *global*
mean and variance by all-reducing per-worker summary statistics (count, sum,
sum of squares), and its custom backward pass all-reduces the two reduction
terms of the batch-norm gradient so that the result is numerically identical
to single-machine batch norm over the full feature matrix — while only ever
communicating ``O(F)`` numbers per worker.

:class:`BatchNorm1d` is the single-machine special case (``comm=None``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distributed.comm import Communicator
from repro.nn.module import Module, Parameter
from repro.tensor import init
from repro.tensor.tensor import Function, Tensor
from repro.utils.validation import check_positive_int


class _BatchNormFunction(Function):
    """Fused (optionally distributed) batch-norm forward/backward.

    Both directions make two full passes over the ``N × F`` input: the
    forward reduces ``Σx`` and ``Σx²`` (accumulated in float64 without a
    float64 copy of ``x``) and writes ``x · scale + shift``; the backward
    reduces ``Σg`` and ``Σg·x`` and writes ``dx = g · a + x · b + c``, with
    per-column ``scale, shift, a, b, c``.  The node saves the input's array
    — the only thing that keeps it alive once the caller moves on — and
    ``O(F)`` vectors; the normalized input is never stored.
    """

    def forward(self, x: Tensor, gamma: Tensor, beta: Tensor,
                comm: Optional[Communicator], eps: float) -> np.ndarray:
        data = x.data
        if data.ndim != 2:
            raise ValueError(f"BatchNorm expects 2-D input, got shape {data.shape}")
        num_features = data.shape[1]
        local_count = np.float64(data.shape[0])
        local_sum = np.einsum("ij->j", data, dtype=np.float64)
        local_sumsq = np.einsum("ij,ij->j", data, data, dtype=np.float64)
        stats = np.concatenate([[local_count], local_sum, local_sumsq])
        if comm is not None:
            stats = comm.allreduce(stats, op="sum", tag="batchnorm")
        total_count = max(stats[0], 1.0)
        mean = stats[1:1 + num_features] / total_count
        # The variance subtracts the float64 mean: its float32 rounding would
        # be off by far more than the variance for inputs with a large offset.
        var = np.maximum(stats[1 + num_features:] / total_count - mean ** 2, 0.0)
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma.data * inv_std
        out = data * scale.astype(data.dtype)
        out += (beta.data - mean * scale).astype(data.dtype)
        self.save_for_backward(data, gamma.data, mean, inv_std, total_count, comm)
        # Stash statistics for the module to update its running buffers.
        self.batch_mean = mean.astype(data.dtype)
        self.batch_var = var.astype(data.dtype)
        return out

    def backward(self, grad_out):
        data, gamma, mean, inv_std, total_count, comm = self.saved
        num_features = data.shape[1]
        sum_g = np.einsum("ij->j", grad_out, dtype=np.float64)
        sum_gx = np.einsum("ij,ij->j", grad_out, data, dtype=np.float64)
        # Parameter gradients are local sums (the trainer syncs them).
        dgamma = inv_std * (sum_gx - mean * sum_g)
        dbeta = sum_g
        # Global reduction terms of the input gradient.
        terms = np.concatenate([sum_g, sum_gx])
        if comm is not None:
            terms = comm.allreduce(terms, op="sum", tag="batchnorm_grad")
        total_g, total_gx = terms[:num_features], terms[num_features:]
        # dx = γσ⁻¹ (g − mean(g) − x̂ · mean(g · x̂)), with x̂ = (x − μ)σ⁻¹,
        # regrouped into per-column coefficients of g, x and 1.
        a = gamma * inv_std
        b = -a * inv_std ** 2 * (total_gx - mean * total_g) / total_count
        c = -a * total_g / total_count - mean * b
        dx = grad_out * a.astype(data.dtype)
        dx += c.astype(data.dtype)
        dx += data * b.astype(data.dtype)
        return (dx, dgamma.astype(gamma.dtype, copy=False),
                dbeta.astype(gamma.dtype, copy=False))


class DistributedBatchNorm(Module):
    """Batch normalization over a row-partitioned feature matrix.

    Parameters
    ----------
    num_features:
        Feature dimension.
    comm:
        Communicator used to all-reduce summary statistics.  ``None`` makes
        the layer behave exactly like single-machine batch norm.  The
        communicator can also be (re)assigned later via :meth:`set_comm`,
        which is how the distributed model replicas attach their per-worker
        communicators.
    eps, momentum:
        Usual batch-norm hyperparameters; running statistics use
        ``running = (1 - momentum) * running + momentum * batch``.
    """

    def __init__(self, num_features: int, comm: Optional[Communicator] = None,
                 eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = check_positive_int(num_features, "num_features")
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.comm = comm
        self.gamma = Parameter(init.ones((self.num_features,)), name="batchnorm.gamma")
        self.beta = Parameter(init.zeros((self.num_features,)), name="batchnorm.beta")
        self.register_buffer("running_mean", init.zeros((self.num_features,)))
        self.register_buffer("running_var", init.ones((self.num_features,)))

    def set_comm(self, comm: Optional[Communicator]) -> None:
        """Attach / replace the communicator (used by distributed model builders)."""
        self.comm = comm

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"Expected {self.num_features} features, got input of shape {x.shape}"
            )
        if self.training:
            fn = _BatchNormFunction()
            out = fn.run(x, self.gamma, self.beta, self.comm, self.eps)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * fn.batch_mean,
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * fn.batch_var,
            )
            return out
        # Evaluation: use running statistics (identical on every worker).
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = Tensor((self.gamma.data * inv_std).astype(x.dtype))
        shift = Tensor((self.beta.data - self.gamma.data * self.running_mean * inv_std).astype(x.dtype))
        return x * scale + shift

    def __repr__(self) -> str:
        mode = "distributed" if self.comm is not None else "local"
        return f"DistributedBatchNorm(num_features={self.num_features}, mode={mode})"


class BatchNorm1d(DistributedBatchNorm):
    """Single-machine batch normalization (``DistributedBatchNorm`` without a communicator)."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__(num_features, comm=None, eps=eps, momentum=momentum)

    def __repr__(self) -> str:
        return f"BatchNorm1d(num_features={self.num_features})"
