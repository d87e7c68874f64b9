"""Timing helpers.

Two clocks are used throughout the library:

* :class:`Timer` measures wall-clock time (``time.perf_counter``).  Used for
  end-to-end measurements in benchmarks that run a single worker.
* :class:`WorkerTimer` measures per-thread CPU time (``time.thread_time``).
  ``cluster.run_job`` runs every worker under one, on a
  ``ThreadServiceCluster`` (threads of this process) or a
  ``MultiprocessServiceCluster`` (forked processes of this host), whose
  workers make the same copies through the same data plane.  A worker's
  wall-clock time includes time spent blocked on the communicator and time
  taken by the other workers sharing the host's cores.  Thread CPU time
  excludes both: it is a rank's own compute (``ClusterRunResult.compute_times``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Accumulating wall-clock timer."""

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    clock = staticmethod(time.perf_counter)

    def start(self) -> "Timer":
        self._start = self.clock()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError(f"{type(self).__name__}.stop() called before start()")
        delta = self.clock() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class WorkerTimer(Timer):
    """Accumulating per-thread CPU timer (excludes blocking waits)."""

    clock = staticmethod(time.thread_time)
