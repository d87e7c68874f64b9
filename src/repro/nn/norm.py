"""Batch normalization, including SAR's distributed variant (paper §3.4), and
the layer epilogue it runs in.

In distributed full-batch training the node-feature matrix ``H`` is split
row-wise across workers.  :class:`DistributedBatchNorm` computes the *global*
mean and variance by all-reducing per-worker summary statistics (count, sum,
sum of squares), and its custom backward pass all-reduces the two reduction
terms of the batch-norm gradient so that the result is numerically identical
to single-machine batch norm over the full feature matrix — while only ever
communicating ``O(F)`` numbers per worker.

With ``comm=None`` the same layer is single-machine batch norm.

Between two conv layers the paper's models run BatchNorm, then ReLU or ELU,
then dropout.  :func:`layer_epilogue` runs that chain as one autograd node,
:class:`Epilogue`, that keeps only what its backward reads — the pre-norm
input, ``O(F)`` statistics and a bit-packed dropout mask — and recomputes the
rest: SAR's rematerialization, applied to the dense chain.  A
:class:`DistributedBatchNorm` called on its own is the same node with no
activation and no dropout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.distributed.comm import Communicator
from repro.nn.module import Module, Parameter
from repro.tensor import init
from repro.tensor.tensor import Function, Tensor
from repro.utils.seed import get_rng
from repro.utils.validation import check_positive_int


def _affine(data: np.ndarray, scale: Optional[np.ndarray],
            shift: Optional[np.ndarray]) -> np.ndarray:
    """``data · scale + shift`` in a fresh array; ``data`` itself without a norm."""
    if scale is None:
        return data
    out = data * scale
    out += shift
    return out


def _unpack(bits: np.ndarray, shape) -> np.ndarray:
    """The boolean array :func:`numpy.packbits` packed into ``bits``."""
    count = int(np.prod(shape, dtype=np.int64))
    return np.unpackbits(bits, count=count).view(bool).reshape(shape)


class Epilogue(Function):
    """BatchNorm → activation → inverted dropout as one node that saves no activation.

    ``activation`` is ``"relu"``, ``"elu"`` (alpha 1, GAT's) or ``None``.
    The forward runs the unfused chain's expressions in its order, so every
    output bit is the same.  With batch statistics it reduces ``Σx`` and
    ``Σx²`` (float64 accumulation without a float64 copy of ``x``,
    all-reduced under the ``batchnorm`` tag when a communicator is given)
    and writes ``x · scale + shift``; with fixed statistics (``affine``) it
    applies the same map.  ReLU is ``x · (x > 0)``, so a negative input gives
    ``-0.0``; ELU is ``max(x, 0) + (exp(min(x, 0)) − 1)``.  The dropout mask
    is drawn from :func:`~repro.utils.seed.get_rng` as ``F.dropout`` draws
    it.  Without a norm the affine step is skipped (``x · 1 + 0`` would turn
    ``-0.0`` into ``+0.0``).

    Saved for the backward: the input's array, when the norm or ELU must be
    re-derived from it (with a norm, the only thing that keeps it alive once
    the caller moves on); ReLU's sign mask bit-packed instead when there is
    no norm; ``O(F)`` vectors; the keep-mask bit-packed.  The output is
    never saved.  The backward recomputes the normalized value with the
    forward's expression, rebuilds ReLU's mask or ELU's factor from it,
    applies the dropout scale, then runs BatchNorm's two reductions (``Σg``,
    ``Σg·x``, all-reduced under ``batchnorm_grad``) and one
    ``dx = g · a + x · b + c`` pass with per-column ``a, b, c``.
    """

    def forward(self, x: Tensor, gamma: Optional[Tensor] = None,
                beta: Optional[Tensor] = None, *, comm: Optional[Communicator] = None,
                eps: float = 0.0, affine: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                activation: Optional[str] = None, p: float = 0.0) -> np.ndarray:
        data = x.data
        stats = None
        if gamma is not None:
            scale, shift, stats = self._batch_statistics(data, gamma.data, beta.data, comm, eps)
        else:
            scale, shift = affine if affine is not None else (None, None)
        out = _affine(data, scale, shift)
        scratch = None if out is data else out  # a buffer this node may write
        sign = None
        if activation == "relu":
            positive = out > 0
            out = np.multiply(out, positive, out=scratch)
            if scale is None and self.needs_grad:
                sign = np.packbits(positive)
        elif activation == "elu":
            neg = np.minimum(out, 0.0)
            np.exp(neg, out=neg)
            neg -= 1.0
            out = np.maximum(out, 0.0, out=scratch)
            out += neg
        kept = None
        if p > 0.0:
            keep = 1.0 - p
            draw = get_rng().random(out.shape) < keep
            out = np.multiply(out, draw.astype(out.dtype) / keep,
                              out=None if out is data else out)
            kept = np.packbits(draw)
        needs_input = scale is not None or activation == "elu"
        self.save_for_backward(data if needs_input else None, sign, kept, scale, shift,
                               stats, activation, p)
        return out

    def _batch_statistics(self, data: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                          comm: Optional[Communicator], eps: float):
        """Per-column ``scale, shift`` in ``data``'s dtype and the backward's statistics."""
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
        scale = gamma * inv_std
        # Stashed for the caller to update its running buffers.
        self.batch_mean = mean.astype(data.dtype)
        self.batch_var = var.astype(data.dtype)
        return (scale.astype(data.dtype), (beta - mean * scale).astype(data.dtype),
                (gamma, mean, inv_std, total_count, comm))

    def backward(self, grad_out):
        data, sign, kept, scale, shift, stats, activation, p = self.saved
        g = grad_out
        if kept is not None:
            g = g * (_unpack(kept, g.shape).astype(g.dtype) / (1.0 - p))
        if sign is not None:
            g = np.multiply(g, _unpack(sign, g.shape), out=None if g is grad_out else g)
        elif activation is not None:
            y = _affine(data, scale, shift)
            if activation == "relu":  # with a norm, so y is this node's buffer
                factor, scratch = y > 0, y
            else:  # ELU's factor, neg + 1
                factor = np.minimum(y, 0.0, out=None if y is data else y)
                np.exp(factor, out=factor)
                factor -= 1.0
                factor += 1.0
                scratch = factor
            g = np.multiply(g, factor, out=scratch if g is grad_out else g)
            del factor  # ReLU's mask is not held through BatchNorm's passes
        if stats is None:
            return (g if scale is None else g * scale,)
        gamma, mean, inv_std, total_count, comm = stats
        num_features = data.shape[1]
        sum_g = np.einsum("ij->j", g, dtype=np.float64)
        sum_gx = np.einsum("ij,ij->j", g, data, dtype=np.float64)
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
        dx = np.multiply(g, a.astype(data.dtype), out=None if g is grad_out else g)
        dx += c.astype(data.dtype)
        dx += data * b.astype(data.dtype)
        return (dx, dgamma.astype(gamma.dtype, copy=False),
                dbeta.astype(gamma.dtype, copy=False))


def layer_epilogue(x: Tensor, norm: Optional["DistributedBatchNorm"] = None,
                   activation: Optional[str] = None, p: float = 0.0) -> Tensor:
    """``norm`` (if any) → ``activation`` (if any) → dropout at ``p``, as one :class:`Epilogue`.

    A training-mode ``norm`` normalizes with the batch's statistics (global
    ones through its communicator) and updates its running buffers; an
    eval-mode one applies its running statistics.  ``p`` is the dropout
    probability in force: ``0`` outside training.
    """
    fn = Epilogue()
    if norm is None:
        return fn.run(x, activation=activation, p=p)
    if x.shape[-1] != norm.num_features:
        raise ValueError(
            f"Expected {norm.num_features} features, got input of shape {x.shape}"
        )
    if not norm.training:
        return fn.run(x, affine=norm.running_affine(x.dtype), activation=activation, p=p)
    out = fn.run(x, norm.gamma, norm.beta, comm=norm.comm, eps=norm.eps,
                 activation=activation, p=p)
    momentum = norm.momentum
    norm.set_buffer("running_mean",
                    (1 - momentum) * norm.running_mean + momentum * fn.batch_mean)
    norm.set_buffer("running_var",
                    (1 - momentum) * norm.running_var + momentum * fn.batch_var)
    return out


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
        return layer_epilogue(x, self)

    def running_affine(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        """Eval mode's per-column ``(scale, shift)`` from the running statistics
        (identical on every worker)."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = (self.gamma.data * inv_std).astype(dtype)
        shift = (self.beta.data - self.gamma.data * self.running_mean * inv_std).astype(dtype)
        return scale, shift

    def __repr__(self) -> str:
        mode = "distributed" if self.comm is not None else "local"
        return f"DistributedBatchNorm(num_features={self.num_features}, mode={mode})"

