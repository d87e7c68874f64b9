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
import weakref
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

    __slots__ = ("data", "grad", "requires_grad", "name", "_ctx", "_buffer_key",
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
        self._hold_buffer()

    # ------------------------------------------------------------------ #
    # lifecycle / memory
    # ------------------------------------------------------------------ #
    def _hold_buffer(self) -> None:
        """Count :attr:`data`'s buffer with the active tracker while alive."""
        self._tracker = active_tracker()
        self._buffer_key = None
        if self._tracker is not None:
            self._buffer_key = self._tracker.acquire(self.data)

    def __del__(self):  # pragma: no cover - exercised indirectly
        try:
            if self._buffer_key is not None:
                self._tracker.let_go(self._buffer_key)
                self._buffer_key = None
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
        out._hold_buffer()
        return out

    def copy(self) -> "Tensor":
        """Return a detached deep copy (registered with the active tracker)."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

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
            high-water mark of *tracked buffers*; the backward's untracked
            NumPy temporaries (SAR's per-block rematerialization among them)
            come on top, and a process's true peak can lie in the backward.
            A later backward that reaches a freed node raises
            ``RuntimeError``.
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

        root = self._ctx
        if root is None:
            self.accumulate_grad(grad)
            return
        grads: dict[int, np.ndarray] = {id(root): grad}
        for node in _topological_order(root):
            out_grad = grads.pop(id(node), None)
            if out_grad is None:
                continue
            if isinstance(node, Tensor):
                node.accumulate_grad(out_grad)
                continue
            parent_grads = node.backward(out_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(node.parents):
                raise RuntimeError(
                    f"{type(node).__name__}.backward returned {len(parent_grads)} gradients "
                    f"for {len(node.parents)} parents"
                )
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None or parent is None:
                    continue
                if isinstance(parent, Tensor):
                    if not parent.requires_grad:
                        continue
                    shape, dtype = parent.data.shape, parent.data.dtype
                else:
                    shape, dtype = parent.out_shape, parent.out_dtype
                pgrad = np.asarray(pgrad, dtype=dtype)
                if pgrad.shape != shape:
                    raise RuntimeError(
                        f"{type(node).__name__}.backward produced gradient of shape "
                        f"{pgrad.shape} for parent of shape {shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
            if free_graph:
                node.release()

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
    * It reads nothing of its inputs but what :meth:`forward` saved: the
      graph does not keep the input tensors (see :meth:`link`).

    :attr:`needs_input_grad` holds one bool per tensor parent, set by
    :meth:`run` before :meth:`forward` (PyTorch's ``ctx.needs_input_grad``).
    A module that needs the node itself after the forward —
    :class:`~repro.nn.norm.DistributedBatchNorm` reads its batch statistics —
    creates it and calls :meth:`run` instead of :meth:`apply`.
    """

    needs_input_grad: Tuple[bool, ...] = ()
    needs_grad: bool = False
    #: one edge per tensor input: the producing ``Function`` of a non-leaf
    #: input, the tensor itself for a leaf that requires grad, ``None``
    #: otherwise; ``None`` as a whole once :meth:`release` ran
    parents: Optional[Tuple[Union["Function", Tensor, None], ...]] = ()
    saved: Tuple[Any, ...] = ()
    #: the output's shape and dtype: what a gradient flowing into this node
    #: must match
    out_shape: Tuple[int, ...] = ()
    out_dtype = None
    _output: Optional[weakref.ref] = None
    _tracker = None
    _held: Tuple[int, ...] = ()

    # -- construction --------------------------------------------------- #
    @classmethod
    def apply(cls, *args, **kwargs) -> Tensor:
        """Create a node and :meth:`run` it."""
        return cls().run(*args, **kwargs)

    def run(self, *args, **kwargs) -> Tensor:
        """Compute :meth:`forward` and, when a gradient is needed, record it."""
        inputs = tuple(a for a in args if isinstance(a, Tensor))
        self.needs_grad = grad_enabled() and any(t.requires_grad for t in inputs)
        if self.needs_grad:
            self.needs_input_grad = tuple(t.requires_grad for t in inputs)
        out = Tensor(self.forward(*args, **kwargs), requires_grad=self.needs_grad)
        if self.needs_grad:
            self.link(inputs, out)
        return out

    def link(self, inputs: Sequence[Tensor], out: Tensor) -> None:
        """Record this node as ``out``'s producer.

        The edges name what the backward walk needs — the producing node of
        each non-leaf input, the leaf tensors that take a gradient — and
        never a non-leaf tensor, so an intermediate is freed as soon as the
        caller drops it unless :meth:`forward` saved its array.  A weak
        reference to ``out`` lets :meth:`release` detach a still-alive
        output from the node.
        """
        self.parents = tuple(
            t._ctx if t._ctx is not None else (t if t.requires_grad else None)
            for t in inputs
        )
        self.out_shape, self.out_dtype = out.data.shape, out.data.dtype
        self._output = weakref.ref(out)
        out._ctx = self

    def save_for_backward(self, *items: Any) -> None:
        """Store arbitrary objects needed by :meth:`backward`.

        Saving is skipped entirely when the output does not require grad, so
        a ``no_grad`` forward (as in SAR's Algorithm 1) holds no references.
        Every saved array's buffer counts with the active memory tracker
        until the node is released.
        """
        if not self.needs_grad:
            return
        self._let_go()
        self.saved = items
        self._tracker = tracker = active_tracker()
        if tracker is not None:
            keys = (tracker.acquire(item) for item in items if isinstance(item, np.ndarray))
            self._held = tuple(key for key in keys if key is not None)

    def release(self) -> None:
        """Drop saved state and parent edges (frees activations).

        A later backward that reaches this node raises; an output tensor
        still alive becomes a leaf.
        """
        self._let_go()
        self.saved = ()
        self.parents = None
        out = self._output() if self._output is not None else None
        if out is not None and out._ctx is self:
            out._ctx = None
        self._output = None

    def _let_go(self) -> None:
        held, self._held = self._held, ()
        for key in held:
            self._tracker.let_go(key)

    def __del__(self):  # pragma: no cover - exercised indirectly
        try:
            self._let_go()
        except Exception:
            pass

    # -- to be implemented by subclasses -------------------------------- #
    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError


def _topological_order(root: "Function") -> List[Union["Function", Tensor]]:
    """Return the nodes reachable from ``root`` in reverse-topological order.

    Nodes are ``Function``s and the leaf tensors that take a gradient.  The
    walk raises when it reaches a node an earlier backward already released
    (PyTorch's "backward through the graph a second time").
    """
    order: List[Union[Function, Tensor]] = []
    visited: set[int] = set()
    stack: List[Tuple[Union[Function, Tensor], bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if isinstance(node, Tensor):
            continue
        if node.parents is None:
            raise RuntimeError(
                f"backward() reached {type(node).__name__}, whose saved state an earlier "
                "backward() already freed; pass free_graph=False to the first backward() "
                "to backpropagate through this graph a second time"
            )
        for parent in node.parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #
def zeros(shape: Sequence[int] | int, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape: Sequence[int] | int, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def zeros_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros_like(t.data), requires_grad=requires_grad)


def ones_like(t: Tensor, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones_like(t.data), requires_grad=requires_grad)
