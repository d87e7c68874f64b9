"""Per-worker memory accounting.

The paper's headline result is a *memory* scaling property: with SAR the peak
memory per worker scales as ``2/N`` (``3/N`` with prefetching) in the number
of workers ``N``, while vanilla domain-parallel training keeps the entire
fetched halo plus every per-edge intermediate alive until the backward pass.

The original system measures process peak RSS on each machine.  Here
``cluster.run_job`` runs the workers as threads of one process
(``ThreadServiceCluster``), where RSS cannot tell them apart, or as forked
processes (``MultiprocessServiceCluster``).  So instead we measure **live
buffer bytes** exactly, the same way on both.  A buffer is counted while
anything holds it:

* every :class:`~repro.tensor.tensor.Tensor` acquires its array's buffer when
  it is created and lets it go when it is garbage collected,
* every array a :class:`~repro.tensor.tensor.Function` saves for its backward
  acquires its buffer in ``save_for_backward`` and lets it go when the node
  is released (after its backward) or collected.

The tracker refcounts holders by *buffer base* — the array that owns the
memory, at the root of a view's ``.base`` chain — so a buffer counts its
``nbytes`` once, from its first holder until its last one goes: a view, a
saved copy of an input's data, and a second ``Function`` saving the same
array add nothing.  A buffer enters the tracker only through a holder of the
owning array itself; a view of a buffer nobody tracks (a slice of a dataset
array, a window into shared memory) stays untracked, as before.

Each worker installs its own tracker (the active tracker is thread-local), so
a worker's peak only reflects buffers allocated by that worker — exactly the
per-machine quantity the paper reports.  A published array lives in its
owner's shared-memory arena: only the rows a fetch copies out count, to the reader.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

_local = threading.local()


def _tracker_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


@dataclass
class MemoryTracker:
    """Tracks live bytes and peak live bytes of buffers held under it.

    Attributes
    ----------
    label:
        Human-readable label (e.g. ``"worker-3"``); used in reports.
    current_bytes:
        Bytes of currently held tracked buffers.
    peak_bytes:
        High-water mark of ``current_bytes`` since the last
        :meth:`reset_peak`.
    """

    label: str = "default"
    current_bytes: int = 0
    peak_bytes: int = 0
    total_allocated_bytes: int = 0
    num_allocations: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: ``id(base) -> [holders, nbytes]`` of every buffer held right now
    _held: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    def __getstate__(self) -> dict:
        # A lock cannot cross a process boundary; the copy gets its own.  The
        # holder table names objects of this process, so the copy is the
        # counters only.
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k not in ("_lock", "_held")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock(), _held={})

    def acquire(self, array: np.ndarray) -> Optional[int]:
        """Count ``array``'s buffer for as long as the caller holds it.

        Returns the key to hand to :meth:`let_go` when the caller drops the
        array, or ``None`` when the buffer is not tracked (empty, or a view
        of a buffer no holder has brought in).
        """
        base = array
        while isinstance(base.base, np.ndarray):
            base = base.base
        key = id(base)
        with self._lock:
            entry = self._held.get(key)
            if entry is not None:
                entry[0] += 1
                return key
            if base is not array or base.base is not None or not base.nbytes:
                return None
            self._held[key] = [1, int(base.nbytes)]
            self.current_bytes += int(base.nbytes)
            self.total_allocated_bytes += int(base.nbytes)
            self.num_allocations += 1
            self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return key

    def let_go(self, key: int) -> None:
        """Drop one holder of the buffer :meth:`acquire` returned ``key`` for."""
        with self._lock:
            entry = self._held.get(key)
            if entry is None:
                return
            entry[0] -= 1
            if entry[0]:
                return
            del self._held[key]
            self.current_bytes -= entry[1]

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current live size."""
        with self._lock:
            self.peak_bytes = self.current_bytes

    @property
    def peak_mb(self) -> float:
        """Peak live buffer memory in megabytes."""
        return self.peak_bytes / (1024.0 * 1024.0)

    @property
    def current_mb(self) -> float:
        """Current live buffer memory in megabytes."""
        return self.current_bytes / (1024.0 * 1024.0)

    def snapshot(self) -> Dict[str, float]:
        """Return a plain-dict snapshot useful for benchmark reports."""
        return {
            "label": self.label,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "peak_mb": self.peak_mb,
            "total_allocated_bytes": self.total_allocated_bytes,
            "num_allocations": self.num_allocations,
        }


def active_tracker() -> Optional[MemoryTracker]:
    """Return the tracker active on the calling thread, or ``None``."""
    stack = _tracker_stack()
    return stack[-1] if stack else None


@contextmanager
def track_memory(tracker: MemoryTracker) -> Iterator[MemoryTracker]:
    """Make ``tracker`` the active tracker for the calling thread.

    Trackers nest; only the innermost tracker receives allocations.
    """
    stack = _tracker_stack()
    stack.append(tracker)
    try:
        yield tracker
    finally:
        stack.pop()


@contextmanager
def no_tracking() -> Iterator[None]:
    """Temporarily disable memory tracking on the calling thread.

    Used for bookkeeping buffers that belong to no worker's working set.
    """
    stack = _tracker_stack()
    saved = list(stack)
    stack.clear()
    try:
        yield
    finally:
        stack.extend(saved)
