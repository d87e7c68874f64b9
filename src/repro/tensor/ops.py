"""Primitive differentiable operations on :class:`~repro.tensor.tensor.Tensor`.

Every operation is implemented as a :class:`~repro.tensor.tensor.Function`
subclass plus a thin functional wrapper.  Operations follow NumPy
broadcasting semantics; gradients are "un-broadcast" (summed over broadcast
axes) on the way back.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.tensor import Function, Tensor

ArrayLike = Union[Tensor, np.ndarray, float, int]


def _wrap(value: ArrayLike, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------- #
# elementwise binary ops
# --------------------------------------------------------------------------- #
class Add(Function):
    def forward(self, a: Tensor, b: Tensor) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a.data + b.data

    def backward(self, grad_out):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad_out, a_shape), _unbroadcast(grad_out, b_shape)


class Sub(Function):
    def forward(self, a: Tensor, b: Tensor) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a.data - b.data

    def backward(self, grad_out):
        a_shape, b_shape = self.saved
        return _unbroadcast(grad_out, a_shape), _unbroadcast(-grad_out, b_shape)


class Mul(Function):
    def forward(self, a: Tensor, b: Tensor) -> np.ndarray:
        self.save_for_backward(a.data, b.data)
        return a.data * b.data

    def backward(self, grad_out):
        a_data, b_data = self.saved
        return (
            _unbroadcast(grad_out * b_data, a_data.shape),
            _unbroadcast(grad_out * a_data, b_data.shape),
        )


class Div(Function):
    def forward(self, a: Tensor, b: Tensor) -> np.ndarray:
        self.save_for_backward(a.data, b.data)
        return a.data / b.data

    def backward(self, grad_out):
        a_data, b_data = self.saved
        grad_a = grad_out / b_data
        grad_b = -grad_out * a_data / (b_data * b_data)
        return _unbroadcast(grad_a, a_data.shape), _unbroadcast(grad_b, b_data.shape)


class Pow(Function):
    def forward(self, a: Tensor, exponent: float) -> np.ndarray:
        out = a.data ** exponent
        self.save_for_backward(a.data, exponent)
        return out

    def backward(self, grad_out):
        a_data, exponent = self.saved
        return (grad_out * exponent * a_data ** (exponent - 1),)


class Neg(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        return -a.data

    def backward(self, grad_out):
        return (-grad_out,)


# --------------------------------------------------------------------------- #
# elementwise unary ops
# --------------------------------------------------------------------------- #
class Exp(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        out = np.exp(a.data)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out):
        (out,) = self.saved
        return (grad_out * out,)


class Log(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        self.save_for_backward(a.data)
        return np.log(a.data)

    def backward(self, grad_out):
        (a_data,) = self.saved
        return (grad_out / a_data,)


class Sqrt(Function):
    def forward(self, a: Tensor) -> np.ndarray:
        out = np.sqrt(a.data)
        self.save_for_backward(out)
        return out

    def backward(self, grad_out):
        (out,) = self.saved
        return (grad_out * 0.5 / out,)


# --------------------------------------------------------------------------- #
# matmul
# --------------------------------------------------------------------------- #
class MatMul(Function):
    """Matrix product supporting ``(…, M, K) @ (K, N)`` and ``(M, K) @ (K, N)``."""

    def forward(self, a: Tensor, b: Tensor) -> np.ndarray:
        if b.data.ndim != 2:
            raise ValueError(
                f"matmul expects a 2-D right operand, got shape {b.data.shape}"
            )
        if a.data.ndim < 2:
            raise ValueError(
                f"matmul expects a >=2-D left operand, got shape {a.data.shape}"
            )
        self.save_for_backward(a.data, b.data)
        if a.data.ndim == 2 and a.data.shape[0] == 1:
            # BLAS routes single-row products to gemv, whose accumulation
            # order differs from gemm's — so a 1-row batch would produce a
            # row bitwise different from the same row inside a larger batch,
            # breaking the library's restricted-forward bit-parity contract
            # (MFG pipelines and the serving path run arbitrary batch
            # sizes, including 1).  Pad to two rows to stay on gemm.
            return (np.concatenate([a.data, a.data], axis=0) @ b.data)[:1]
        return a.data @ b.data

    def backward(self, grad_out):
        a_data, b_data = self.saved
        need_a, need_b = self.needs_input_grad
        grad_a = grad_out @ b_data.T if need_a else None
        grad_b = None
        if need_b:
            # Collapse any leading batch dimensions of ``a`` for the weight grad.
            a_2d = a_data.reshape(-1, a_data.shape[-1])
            g_2d = grad_out.reshape(-1, grad_out.shape[-1])
            grad_b = (a_2d.T @ g_2d).astype(b_data.dtype, copy=False)
        return grad_a, grad_b


# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #
def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    def forward(self, a: Tensor, axis=None, keepdims: bool = False) -> np.ndarray:
        self.save_for_backward(a.shape, _normalize_axis(axis, a.ndim), keepdims)
        return a.data.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad_out):
        shape, axis, keepdims = self.saved
        grad = np.asarray(grad_out)
        if axis is not None and not keepdims:
            for ax in sorted(axis):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).astype(grad.dtype, copy=False).copy(),)


class Mean(Function):
    def forward(self, a: Tensor, axis=None, keepdims: bool = False) -> np.ndarray:
        norm_axis = _normalize_axis(axis, a.ndim)
        if norm_axis is None:
            count = a.data.size
        else:
            count = int(np.prod([a.shape[ax] for ax in norm_axis]))
        self.save_for_backward(a.shape, norm_axis, keepdims, count)
        return a.data.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad_out):
        shape, axis, keepdims, count = self.saved
        grad = np.asarray(grad_out) / count
        if axis is not None and not keepdims:
            for ax in sorted(axis):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).astype(grad.dtype, copy=False).copy(),)


class _MinMax(Function):
    _np_fn = None  # set by subclasses

    def forward(self, a: Tensor, axis=None, keepdims: bool = False) -> np.ndarray:
        out = self._np_fn(a.data, axis=axis, keepdims=keepdims)
        self.save_for_backward(a.data, out, _normalize_axis(axis, a.ndim), keepdims)
        return out

    def backward(self, grad_out):
        a_data, out, axis, keepdims = self.saved
        out_b = np.asarray(out)
        grad = np.asarray(grad_out)
        if axis is not None and not keepdims:
            for ax in sorted(axis):
                out_b = np.expand_dims(out_b, ax)
                grad = np.expand_dims(grad, ax)
        mask = (a_data == out_b)
        # Split gradient equally between ties (matches PyTorch amax behaviour
        # closely enough for our use cases).
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return ((mask * grad) / counts,)


class Max(_MinMax):
    _np_fn = staticmethod(np.max)


class Min(_MinMax):
    _np_fn = staticmethod(np.min)


# --------------------------------------------------------------------------- #
# shape ops
# --------------------------------------------------------------------------- #
class Reshape(Function):
    def forward(self, a: Tensor, shape: Tuple[int, ...]) -> np.ndarray:
        self.save_for_backward(a.shape)
        return a.data.reshape(shape)

    def backward(self, grad_out):
        (shape,) = self.saved
        return (grad_out.reshape(shape),)


class Transpose(Function):
    def forward(self, a: Tensor, axes=None) -> np.ndarray:
        self.save_for_backward(axes, a.ndim)
        return np.transpose(a.data, axes)

    def backward(self, grad_out):
        axes, ndim = self.saved
        if axes is None:
            return (np.transpose(grad_out),)
        inverse = np.argsort(axes)
        return (np.transpose(grad_out, inverse),)


class Concat(Function):
    def forward(self, *tensors: Tensor, axis: int = 0) -> np.ndarray:
        self.save_for_backward(axis, [t.shape[axis] for t in tensors])
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(self, grad_out):
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad_out, splits, axis=axis))


class Slice(Function):
    """Basic (non-advanced) indexing: slices, ints, ellipsis, None."""

    def forward(self, a: Tensor, key) -> np.ndarray:
        self.save_for_backward(a.shape, key)
        return a.data[key]

    def backward(self, grad_out):
        shape, key = self.saved
        grad = np.zeros(shape, dtype=grad_out.dtype)
        grad[key] = grad_out
        return (grad,)


class Gather(Function):
    """Row gather along axis 0 with an integer index array (may repeat).

    The backward scatters by plain assignment when the index is
    non-negative and strictly increasing (an MFG block's ``dst_in_src``),
    since no row then receives two gradients; any other index accumulates
    with ``np.add.at``.
    """

    def forward(self, a: Tensor, index: np.ndarray) -> np.ndarray:
        index = np.asarray(index, dtype=np.int64)
        if self.needs_grad:
            flat = index.ravel()
            increasing = bool(flat.size == 0 or (flat[0] >= 0 and (flat[1:] > flat[:-1]).all()))
            self.save_for_backward(a.shape, index, increasing)
        return a.data[index]

    def backward(self, grad_out):
        shape, index, increasing = self.saved
        grad = np.zeros(shape, dtype=grad_out.dtype)
        if increasing:
            grad[index] = grad_out
        else:
            np.add.at(grad, index, grad_out)
        return (grad,)


# --------------------------------------------------------------------------- #
# functional wrappers
# --------------------------------------------------------------------------- #
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a = _wrap(a)
    return Add.apply(a, _wrap(b, a))


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a = _wrap(a)
    return Sub.apply(a, _wrap(b, a))


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a = _wrap(a)
    return Mul.apply(a, _wrap(b, a))


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a = _wrap(a)
    return Div.apply(a, _wrap(b, a))


def neg(a: Tensor) -> Tensor:
    return Neg.apply(_wrap(a))


def pow(a: Tensor, exponent: float) -> Tensor:  # noqa: A001 - mirrors torch.pow
    return Pow.apply(_wrap(a), float(exponent))


def exp(a: Tensor) -> Tensor:
    return Exp.apply(_wrap(a))


def log(a: Tensor) -> Tensor:
    return Log.apply(_wrap(a))


def sqrt(a: Tensor) -> Tensor:
    return Sqrt.apply(_wrap(a))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return MatMul.apply(_wrap(a), _wrap(b))


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return Sum.apply(_wrap(a), axis, keepdims)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Mean.apply(_wrap(a), axis, keepdims)


def max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return Max.apply(_wrap(a), axis, keepdims)


def min(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return Min.apply(_wrap(a), axis, keepdims)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return Reshape.apply(_wrap(a), tuple(shape))


def transpose(a: Tensor, axes=None) -> Tensor:
    return Transpose.apply(_wrap(a), axes)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    return Concat.apply(*tensors, axis=axis)


def slice_(a: Tensor, key) -> Tensor:
    return Slice.apply(_wrap(a), key)


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    return Gather.apply(_wrap(a), index)
