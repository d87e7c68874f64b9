"""Run a worker function once on every rank of a cluster, measured.

A "worker function" has the signature::

    def worker_fn(rank: int, comm: Communicator, shard, **kwargs) -> Any

:func:`run_job` runs it as a single ``request("run")`` on a service cluster:
``ThreadServiceCluster`` for :func:`run_distributed`, the forked
``MultiprocessServiceCluster`` for :func:`~repro.distributed.mp_backend.
run_multiprocess`.  Inside each worker the call runs under its own
:class:`~repro.tensor.memory.MemoryTracker` and a thread-CPU timer; the
per-rank ``(result, tracker, comm.stats, elapsed)`` come back through the
cluster's response path into one :class:`ClusterRunResult`, whichever cluster
ran the job.  Spawning, unblocking the survivors of a failed rank, the job
deadline and teardown are the cluster's, not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.distributed.comm import Communicator, CommStats
from repro.distributed.plane import WorkerFailedError
from repro.distributed.thread_backend import ThreadServiceCluster
from repro.tensor.memory import MemoryTracker, track_memory
from repro.utils.timing import WorkerTimer


@dataclass
class ClusterRunResult:
    """Per-worker outputs and measurements of one cluster run."""

    world_size: int
    results: List[Any]
    memory: List[MemoryTracker]
    comm_stats: List[CommStats]
    compute_times: List[float]

    @property
    def peak_memory_bytes(self) -> List[int]:
        return [t.peak_bytes for t in self.memory]

    @property
    def peak_memory_mb(self) -> List[float]:
        return [t.peak_mb for t in self.memory]

    @property
    def max_peak_memory_mb(self) -> float:
        return max(self.peak_memory_mb) if self.memory else 0.0

    @property
    def max_compute_time(self) -> float:
        return max(self.compute_times) if self.compute_times else 0.0

    # Cluster totals are taken on the receiving side: a fetch is booked by
    # the rank that reads, on either driver, never on the owner's counters.
    @property
    def total_bytes_communicated(self) -> int:
        return sum(s.bytes_received for s in self.comm_stats)

    def total_received_by_tag(self) -> Dict[str, int]:
        """Cluster-wide received bytes per communication tag."""
        totals: Dict[str, int] = {}
        for stats in self.comm_stats:
            for tag, nbytes in stats.received_by_tag.items():
                totals[tag] = totals.get(tag, 0) + nbytes
        return totals

    def summary(self) -> Dict[str, float]:
        """Compact dictionary for logging / benchmark reports."""
        return {
            "world_size": self.world_size,
            "max_peak_memory_mb": self.max_peak_memory_mb,
            "max_compute_time_s": self.max_compute_time,
            "total_comm_mb": self.total_bytes_communicated / 2**20,
        }


def run_job(
    cluster_cls,
    worker_fn: Callable[..., Any],
    world_size: int,
    worker_args: Optional[Sequence[Any]],
    timeout_s: float,
    common_kwargs: Dict[str, Any],
) -> ClusterRunResult:
    """Start a ``cluster_cls`` cluster, run ``worker_fn`` once per rank on it, stop it.

    ``worker_fn(rank, comm, [worker_args[rank]], **common_kwargs)`` is the
    cluster's only job.  A rank that raises fails the job with
    ``RuntimeError("Worker N failed: ...")`` chained from its exception (the
    cluster has already unblocked the other ranks); whatever the outcome, no
    worker outlives the call beyond what the cluster's ``stop`` allows.
    """
    if worker_args is not None and len(worker_args) != world_size:
        raise ValueError(f"worker_args must have length {world_size}, got {len(worker_args)}")

    def single_job(rank: int, comm: Communicator):
        args = () if worker_args is None else (worker_args[rank],)

        def run(kind, payload):
            tracker, timer = MemoryTracker(label=f"worker-{rank}"), WorkerTimer()
            try:
                with track_memory(tracker), timer:
                    result = worker_fn(rank, comm, *args, **common_kwargs)
            except WorkerFailedError:  # a survivor's follow-on, not a cause
                raise
            except Exception as exc:
                raise RuntimeError(f"Worker {rank} failed: {exc!r}") from exc
            return result, tracker, comm.stats, timer.elapsed

        return run

    cluster = cluster_cls(single_job, world_size, timeout_s=timeout_s, name="run").start()
    try:
        per_rank = cluster.request("run")
    finally:
        cluster.stop()
    results, memory, comm_stats, compute_times = map(list, zip(*per_rank))
    return ClusterRunResult(world_size, results, memory, comm_stats, compute_times)


def run_distributed(
    worker_fn: Callable[..., Any],
    world_size: int,
    worker_args: Optional[Sequence[Any]] = None,
    timeout_s: float = 120.0,
    **common_kwargs: Any,
) -> ClusterRunResult:
    """Run ``worker_fn`` on ``world_size`` worker threads of this process (see :func:`run_job`)."""
    return run_job(
        ThreadServiceCluster, worker_fn, world_size, worker_args, timeout_s, common_kwargs
    )
