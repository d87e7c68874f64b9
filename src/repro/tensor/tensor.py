"""A NumPy-backed reverse-mode automatic-differentiation engine.

This module is the library's substitute for PyTorch's tensor + Autograd
stack.  It provides:

* :class:`Tensor` — a dense array with an optional gradient and a pointer to
  the :class:`Function` that produced it,
* :class:`Function` — the base class for differentiable operations,
* :func:`no_grad` / :func:`grad_enabled` — the mechanism SAR's Algorithm 1
  relies on to *skip* recording the message-passing/aggregation part of the
  computational graph during the forward pass,
* a topological-order backward engine with optional graph freeing.

The design deliberately mirrors the PyTorch concepts the paper talks about
(saved tensors, the Autograd "gap" SAR introduces around the aggregation op,
re-injecting errors with ``tensor.backward(error)``), so the SAR algorithms
in :mod:`repro.core` read very close to the paper's pseudocode.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.memory import active_tracker

DEFAULT_DTYPE = np.float32

_grad_state = threading.local()


def grad_enabled() -> bool:
    """Return whether operations record the autograd graph on this thread."""
    return getattr(_grad_state, "enabled", True)


def _set_grad_enabled(value: bool) -> None:
    _grad_state.enabled = value


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables autograd recording.

    SAR's forward pass (Algorithm 1) wraps the sequential aggregation loop in
    this context so that fetched remote features and per-partition messages
    never become part of the computational graph.
    """
    prev = grad_enabled()
    _set_grad_enabled(False)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


@contextmanager
def enable_grad() -> Iterator[None]:
    """Context manager that re-enables autograd recording inside ``no_grad``."""
    prev = grad_enabled()
    _set_grad_enabled(True)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


def _as_array(value: Any, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """A dense array node in the autograd graph.

    Parameters
    ----------
    data:
        Array-like.  Floating point data defaults to ``float32``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in error messages and debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_ctx", "_tracked_bytes",
                 "_tracker", "__weakref__")

    def __init__(self, data: Any, requires_grad: bool = False, name: Optional[str] = None,
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype == np.float64:
            arr = arr.astype(DEFAULT_DTYPE, copy=False)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self.name = name
        self._ctx: Optional["Function"] = None

        # Memory accounting: only count buffers this tensor owns.
        self._tracked_bytes = 0
        self._tracker = None
        tracker = active_tracker()
        if tracker is not None and arr.base is None and arr.size:
            self._tracked_bytes = int(arr.nbytes)
            self._tracker = tracker
            tracker.allocate(self._tracked_bytes)

    # ------------------------------------------------------------------ #
    # lifecycle / memory
    # ------------------------------------------------------------------ #
    def __del__(self):  # pragma: no cover - exercised indirectly
        try:
            if self._tracker is not None and self._tracked_bytes:
                self._tracker.release(self._tracked_bytes)
                self._tracker = None
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        name = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{name})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out.name = self.name
        out._ctx = None
        out._tracked_bytes = 0
        out._tracker = None
        return out

    def copy(self) -> "Tensor":
        """Return a detached deep copy (registered with the active tracker)."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def astype(self, dtype) -> "Tensor":
        from repro.tensor import ops

        return ops.cast(self, dtype)

    # ------------------------------------------------------------------ #
    # gradient handling
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into :attr:`grad`, allocating it if needed."""
        if grad.shape != self.data.shape:
            raise ValueError(
                f"Gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                + (f" for tensor {self.name!r}" if self.name else "")
            )
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[Union[np.ndarray, "Tensor"]] = None,
                 free_graph: bool = True) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the loss w.r.t. this tensor.  Defaults to ``1`` for
            scalar tensors (the usual ``loss.backward()`` call).
        free_graph:
            If ``True`` (default), the traversed graph is dismantled as the
            backward pass goes, so saved activations are freed as soon as
            their node has run.  That makes the end-of-forward peak the
            high-water mark of *tracked tensors*; the backward's untracked
            NumPy temporaries (SAR's per-block rematerialization among them)
            come on top, and a process's true peak can lie in the backward.
        """
        if not self.requires_grad:
            raise RuntimeError("Called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        elif isinstance(grad, Tensor):
            grad = grad.data
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        tensor_by_id = {id(t): t for t in topo}

        for tensor in topo:
            ctx = tensor._ctx
            out_grad = grads.pop(id(tensor), None)
            if out_grad is None:
                continue
            if ctx is None or tensor.is_leaf():
                tensor.accumulate_grad(out_grad)
                continue
            parent_grads = ctx.backward(out_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(ctx.parents):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(parent_grads)} gradients "
                    f"for {len(ctx.parents)} parents"
                )
            for parent, pgrad in zip(ctx.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad, dtype=parent.data.dtype)
                if pgrad.shape != parent.data.shape:
                    raise RuntimeError(
                        f"{type(ctx).__name__}.backward produced gradient of shape "
                        f"{pgrad.shape} for parent of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
            if free_graph:
                ctx.release()
                tensor._ctx = None

        # Any remaining grads belong to leaves reached multiple times.
        for key, remaining in grads.items():
            tensor = tensor_by_id.get(key)
            if tensor is not None and tensor.requires_grad:
                tensor.accumulate_grad(remaining)

    def is_leaf(self) -> bool:
        """Return True when this tensor was not produced by a Function."""
        return self._ctx is None

    # ------------------------------------------------------------------ #
    # operator overloads (implemented in repro.tensor.ops)
    # ------------------------------------------------------------------ #
    def _ops(self):
        from repro.tensor import ops

        return ops

    def __add__(self, other):
        return self._ops().add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._ops().sub(self, other)

    def __rsub__(self, other):
        return self._ops().sub(other, self)

    def __mul__(self, other):
        return self._ops().mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._ops().div(self, other)

    def __rtruediv__(self, other):
        return self._ops().div(other, self)

    def __neg__(self):
        return self._ops().neg(self)

    def __pow__(self, exponent):
        return self._ops().pow(self, exponent)

    def __matmul__(self, other):
        return self._ops().matmul(self, other)

    def __getitem__(self, key):
        ops = self._ops()
        if isinstance(key, (list, np.ndarray)) and np.asarray(key).dtype != bool:
            return ops.gather(self, np.asarray(key))
        return ops.slice_(self, key)

    # reductions / shape helpers --------------------------------------- #
    def sum(self, axis=None, keepdims: bool = False):
        return self._ops().sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return self._ops().mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        return self._ops().max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False):
        return self._ops().min(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._ops().reshape(self, shape)

    def transpose(self, axes=None):
        return self._ops().transpose(self, axes)

    @property
    def T(self):
        return self.transpose()

    def exp(self):
        return self._ops().exp(self)

    def log(self):
        return self._ops().log(self)

    def sqrt(self):
        return self._ops().sqrt(self)


class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (returning a raw ``np.ndarray``) and
    :meth:`backward` (returning one gradient array — or ``None`` — per parent
    tensor, in the order the parents were passed to :meth:`apply`).

    The contract of :meth:`backward`:

    * It may return ``None`` for a parent whose entry in
      :attr:`needs_input_grad` is false, and should then skip computing that
      gradient (``MatMul`` skips the GEMM); the engine discards any gradient
      for such a parent anyway.  SAR's ``SequentialAggregation`` computes
      them all.
    * It must never write into ``grad_out``: the same array may be handed to
      more than one consumer (``Add.backward`` returns it to both parents).

    :attr:`needs_input_grad` holds one bool per tensor parent, set by
    :meth:`apply` when it records the node (PyTorch's
    ``ctx.needs_input_grad``).  A node built by hand instead of through
    :meth:`apply` — :class:`~repro.nn.norm.DistributedBatchNorm` does so to
    read its batch statistics — keeps the empty default, so its ``backward``
    must compute every gradient.
    """

    needs_input_grad: Tuple[bool, ...] = ()

    def __init__(self):
        self.parents: Tuple[Tensor, ...] = ()
        self.saved: Tuple[Any, ...] = ()
        self.needs_grad: bool = False

    # -- construction --------------------------------------------------- #
    @classmethod
    def apply(cls, *args, **kwargs) -> Tensor:
        fn = cls()
        tensor_args = tuple(a for a in args if isinstance(a, Tensor))
        fn.needs_grad = grad_enabled() and any(t.requires_grad for t in tensor_args)
        if fn.needs_grad:
            fn.needs_input_grad = tuple(t.requires_grad for t in tensor_args)
        out_data = fn.forward(*args, **kwargs)
        out = Tensor(out_data, requires_grad=fn.needs_grad)
        if fn.needs_grad:
            fn.parents = tensor_args
            out._ctx = fn
        else:
            fn.saved = ()
        return out

    def save_for_backward(self, *items: Any) -> None:
        """Store arbitrary objects needed by :meth:`backward`.

        Saving is skipped entirely when the output does not require grad, so
        a ``no_grad`` forward (as in SAR's Algorithm 1) holds no references.
        """
        if self.needs_grad:
            self.saved = items

    def release(self) -> None:
        """Drop saved state and parent references (frees activations)."""
        self.saved = ()
        self.parents = ()

    # -- to be implemented by subclasses -------------------------------- #
    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return tensors reachable from ``root`` in reverse-topological order."""
    order: List[Tensor] = []
    visited: set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor._ctx is not None:
            for parent in tensor._ctx.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    order.reverse()
    return order


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #
def tensor(data: Any, requires_grad: bool = False, name: Optional[str] = None,
           dtype=None) -> Tensor:
    """Create a :class:`Tensor` (mirrors ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad, name=name, dtype=dtype)


def zeros(shape: Sequence[int] | int, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape: Sequence[int] | int, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)


def ones_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones_like(t.data), requires_grad=requires_grad)
