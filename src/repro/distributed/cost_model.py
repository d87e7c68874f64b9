"""Epoch-time and memory cost model.

The paper reports wall-clock epoch times on a cluster of 36-core Xeon
machines connected by 200 Gb/s InfiniBand.  Here ``cluster.run_job`` runs
the workers on one host, as threads of one process (``ThreadServiceCluster``)
or as forked processes (``MultiprocessServiceCluster``), so raw wall-clock
numbers are not comparable.  Instead every benchmark reports a *modeled*
epoch time:

``epoch_time = max over workers of (compute_time · compute_scale
               + transferred_bytes / bandwidth + messages · latency)``

where ``compute_time`` is the worker's thread-CPU time and the transfer
terms come from the exact per-worker byte counts recorded by the
communicator, the same on both drivers (a fetch is booked by its reader).
The defaults below mimic the relative balance of the paper's hardware;
benchmarks that need the communication-bound regime of
ogbn-papers100M at 128 machines (Fig. 6) scale ``bandwidth_mbps`` down in
a named :class:`ClusterSpec` of their own (``benchmarks/bench_fig6_papers_gat.py``).

The cost model is also where "out of memory" is decided (Fig. 6's missing
vanilla-DP bar at 32 machines): a worker whose peak live tensor bytes exceed
``memory_budget_mb`` is flagged OOM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.distributed.cluster import ClusterRunResult

#: Tags whose transfer time the engine's prefetch pipeline can hide behind
#: compute (§3.4): the forward halo fetches and the case-2 backward
#: re-fetches are issued on a background thread, so up to ``compute_time`` of
#: their wire time overlaps.  Error exchanges and gradient allreduces are
#: synchronization points and stay serial.
PREFETCH_OVERLAP_TAGS = ("forward_halo", "backward_refetch")

#: Tags hidden when the distributed sampled-training loop samples batch b+1
#: cooperatively (the per-layer frontier allgathers, tagged
#: ``sample_frontier``) behind batch b's compute — a worker's
#: ``MiniBatchDataLoader`` samples ahead on its prefetch thread whenever
#: ``NeighborSamplingConfig.num_workers >= 1`` and ``max_resident_batches >= 2``.
SAMPLING_OVERLAP_TAGS = ("sample_frontier",)

#: Everything the sampled data path can hide at once: halo prefetch plus the
#: pipelined sampling frontiers.
PIPELINE_OVERLAP_TAGS = PREFETCH_OVERLAP_TAGS + SAMPLING_OVERLAP_TAGS


@dataclass(frozen=True)
class ClusterSpec:
    """Description of the modeled cluster hardware.

    Parameters
    ----------
    bandwidth_mbps:
        Effective per-worker network bandwidth in megabytes per second.
    latency_s:
        Per-message latency in seconds.
    compute_scale:
        Multiplier applied to measured per-worker compute times (use <1 to
        model faster machines than the simulation host).
    memory_budget_mb:
        Per-worker memory budget used for OOM detection; ``None`` disables
        the check.
    """

    name: str = "xeon-infiniband"
    bandwidth_mbps: float = 2000.0
    latency_s: float = 50e-6
    compute_scale: float = 1.0
    memory_budget_mb: Optional[float] = None

    def transfer_time(self, nbytes: int, messages: int = 0) -> float:
        """Modeled time to move ``nbytes`` in ``messages`` point-to-point sends."""
        bandwidth_bytes_per_s = self.bandwidth_mbps * 1024.0 * 1024.0
        return nbytes / bandwidth_bytes_per_s + messages * self.latency_s


#: Default spec used by the benchmarks; roughly balances compute and
#: communication the way the paper's testbed does for mid-sized worker counts.
PAPER_LIKE_SPEC = ClusterSpec()

#: A communication-constrained spec used for the papers100M-style runs where
#: the paper observes training becoming communication bound at 128 workers.
COMM_BOUND_SPEC = ClusterSpec(name="comm-bound", bandwidth_mbps=200.0, latency_s=200e-6)


@dataclass
class WorkerCost:
    """Modeled breakdown for one worker."""

    rank: int
    compute_time_s: float
    comm_time_s: float
    peak_memory_mb: float
    oom: bool
    #: portion of ``comm_time_s`` hidden behind compute by the prefetch
    #: pipeline (0 unless the cost model was given ``overlap_tags``)
    hidden_comm_time_s: float = 0.0

    @property
    def total_time_s(self) -> float:
        return self.compute_time_s + self.comm_time_s - self.hidden_comm_time_s


@dataclass
class EpochCostReport:
    """Cluster-wide epoch cost summary (the quantity the paper's figures plot)."""

    spec: ClusterSpec
    workers: List[WorkerCost]

    @property
    def epoch_time_s(self) -> float:
        """Modeled epoch time: the slowest worker's compute + communication."""
        return max(w.total_time_s for w in self.workers) if self.workers else 0.0

    @property
    def max_peak_memory_mb(self) -> float:
        return max(w.peak_memory_mb for w in self.workers) if self.workers else 0.0

    @property
    def any_oom(self) -> bool:
        return any(w.oom for w in self.workers)

    @property
    def compute_time_s(self) -> float:
        return max(w.compute_time_s for w in self.workers) if self.workers else 0.0

    @property
    def comm_time_s(self) -> float:
        return max(w.comm_time_s for w in self.workers) if self.workers else 0.0

    @property
    def hidden_comm_time_s(self) -> float:
        """Comm time hidden behind compute by prefetch (slowest worker)."""
        return max(w.hidden_comm_time_s for w in self.workers) if self.workers else 0.0


def epoch_cost(
    result: ClusterRunResult,
    spec: ClusterSpec = PAPER_LIKE_SPEC,
    num_epochs: int = 1,
    overlap_tags: Optional[Sequence[str]] = None,
) -> EpochCostReport:
    """Convert a :class:`ClusterRunResult` into a modeled per-epoch cost report.

    ``num_epochs`` divides measured compute time and communication volume so
    a multi-epoch training run can be reported per epoch.

    ``overlap_tags`` names communication tags whose wire time overlaps with
    compute (pass :data:`PREFETCH_OVERLAP_TAGS` for runs executed with
    ``SARConfig(prefetch=True)``): per worker, up to ``compute_time`` of the
    tagged transfer time is hidden, so the modeled total becomes
    ``max(compute, overlappable_comm) + serial_comm``.
    """
    if num_epochs <= 0:
        raise ValueError(f"num_epochs must be positive, got {num_epochs}")
    workers = []
    for rank in range(result.world_size):
        stats = result.comm_stats[rank]
        # Full-duplex links: sends and receives overlap, so the modeled wire
        # time is driven by the larger of the two directions.
        directional_bytes = max(stats.bytes_sent, stats.bytes_received) / num_epochs
        messages = max(stats.messages_sent, stats.messages_received) / num_epochs
        comm_time = spec.transfer_time(directional_bytes, messages)
        compute_time = result.compute_times[rank] * spec.compute_scale / num_epochs
        hidden = 0.0
        if overlap_tags:
            sent_overlap, recv_overlap = stats.bytes_for_tags(overlap_tags)
            overlap_bytes = max(sent_overlap, recv_overlap) / num_epochs
            overlap_time = min(spec.transfer_time(int(overlap_bytes)), comm_time)
            hidden = min(compute_time, overlap_time)
        peak_mb = result.memory[rank].peak_mb
        workers.append(
            WorkerCost(
                rank=rank,
                compute_time_s=compute_time,
                comm_time_s=comm_time,
                peak_memory_mb=peak_mb,
                oom=spec.memory_budget_mb is not None and peak_mb > spec.memory_budget_mb,
                hidden_comm_time_s=hidden,
            )
        )
    return EpochCostReport(spec=spec, workers=workers)

