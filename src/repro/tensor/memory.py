"""Per-worker memory accounting.

The paper's headline result is a *memory* scaling property: with SAR the peak
memory per worker scales as ``2/N`` (``3/N`` with prefetching) in the number
of workers ``N``, while vanilla domain-parallel training keeps the entire
fetched halo plus every per-edge intermediate alive until the backward pass.

The original system measures process peak RSS on each machine.  Here
``cluster.run_job`` runs the workers as threads of one process
(``ThreadServiceCluster``), where RSS cannot tell them apart, or as forked
processes (``MultiprocessServiceCluster``).  So instead we measure **live
tensor bytes** exactly, the same way on both:

* every :class:`~repro.tensor.tensor.Tensor` that owns its buffer registers
  its ``nbytes`` with the *active* :class:`MemoryTracker` when it is created,
* and releases the same amount when it is garbage collected.

Each worker installs its own tracker (the active tracker is thread-local), so
a worker's peak only reflects tensors allocated by that worker — exactly the
per-machine quantity the paper reports.  Views (reshape/transpose/slices)
share their parent's buffer and are not double counted.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

_local = threading.local()


def _tracker_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


@dataclass
class MemoryTracker:
    """Tracks live bytes and peak live bytes of tensors allocated under it.

    Attributes
    ----------
    label:
        Human-readable label (e.g. ``"worker-3"``); used in reports.
    current_bytes:
        Bytes of currently live tracked tensors.
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

    def __getstate__(self) -> dict:
        # A lock cannot cross a process boundary; the copy gets its own.
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    def allocate(self, nbytes: int) -> None:
        with self._lock:
            self.current_bytes += int(nbytes)
            self.total_allocated_bytes += int(nbytes)
            self.num_allocations += 1
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.current_bytes -= int(nbytes)

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current live size."""
        with self._lock:
            self.peak_bytes = self.current_bytes

    def reset(self) -> None:
        """Fully reset counters (live tensors are forgotten, use with care)."""
        with self._lock:
            self.current_bytes = 0
            self.peak_bytes = 0
            self.total_allocated_bytes = 0
            self.num_allocations = 0

    @property
    def peak_mb(self) -> float:
        """Peak live tensor memory in megabytes."""
        return self.peak_bytes / (1024.0 * 1024.0)

    @property
    def current_mb(self) -> float:
        """Current live tensor memory in megabytes."""
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

    Used for bookkeeping buffers (e.g. the communicator's staging copies on
    the *receiving* side are counted, but the sender's published buffer is
    attributed to the sender, not to whoever reads it).
    """
    stack = _tracker_stack()
    saved = list(stack)
    stack.clear()
    try:
        yield
    finally:
        stack.extend(saved)
