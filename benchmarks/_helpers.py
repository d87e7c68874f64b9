"""Shared helpers for the benchmark suite (imported by the bench modules).

Every benchmark module reproduces one table or figure of the paper (see
docs/benchmarks.md).  The helpers here run a short distributed
training job for a given (model, dataset, execution mode, worker count)
combination, convert the measurements into the quantities the paper plots
(modeled epoch time, peak per-worker memory, communication volume), and print
them as rows so the regenerated "figure" is readable from the pytest output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


from repro.core import SARConfig
from repro.distributed import (
    ClusterSpec,
    PAPER_LIKE_SPEC,
    PREFETCH_OVERLAP_TAGS,
    epoch_cost,
)
from repro.training import DistributedTrainer, TrainingConfig
from repro.utils.seed import set_seed


@dataclass
class ScalingRow:
    """One bar of a scaling figure."""

    label: str
    num_workers: int
    epoch_time_s: float
    compute_time_s: float
    comm_time_s: float
    peak_memory_mb: float
    comm_mb_per_epoch: float
    oom: bool
    final_test_accuracy: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "num_workers": self.num_workers,
            "epoch_time_s": round(self.epoch_time_s, 4),
            "compute_time_s": round(self.compute_time_s, 4),
            "comm_time_s": round(self.comm_time_s, 4),
            "peak_memory_mb": round(self.peak_memory_mb, 3),
            "comm_mb_per_epoch": round(self.comm_mb_per_epoch, 3),
            "oom": self.oom,
            "final_test_accuracy": round(self.final_test_accuracy, 4),
        }


def run_scaling_point(dataset, model_factory: Callable, *, num_workers: int,
                      mode: str, label: str, num_epochs: int = 2,
                      spec: ClusterSpec = PAPER_LIKE_SPEC,
                      training_config: Optional[TrainingConfig] = None,
                      seed: int = 0, prefetch: bool = False) -> ScalingRow:
    """Train for a few epochs on a simulated cluster and summarize the cost.

    ``prefetch=True`` enables the engine's background-fetch pipeline and lets
    the cost model hide halo/re-fetch transfer time behind compute
    (``PREFETCH_OVERLAP_TAGS``).
    """
    set_seed(seed)
    config = training_config or TrainingConfig(num_epochs=num_epochs, eval_every=0,
                                               lr_schedule="none")
    trainer = DistributedTrainer(
        dataset, model_factory, num_workers=num_workers,
        sar_config=SARConfig(mode=mode, prefetch=prefetch), config=config,
        partition_seed=seed, timeout_s=1200.0,
    )
    result = trainer.run()
    report = epoch_cost(result.cluster, spec, num_epochs=config.num_epochs,
                        overlap_tags=PREFETCH_OVERLAP_TAGS if prefetch else None)
    comm_mb = result.cluster.total_bytes_communicated / config.num_epochs / 2 ** 20
    return ScalingRow(
        label=label,
        num_workers=num_workers,
        epoch_time_s=report.epoch_time_s,
        compute_time_s=report.compute_time_s,
        comm_time_s=report.comm_time_s,
        peak_memory_mb=report.max_peak_memory_mb,
        comm_mb_per_epoch=comm_mb,
        oom=report.any_oom,
        final_test_accuracy=result.training.final_test_accuracy,
    )


def print_figure(title: str, rows: List[ScalingRow]) -> None:
    """Print a reproduced figure as an aligned text table."""
    print(f"\n=== {title} ===")
    header = (f"{'config':<16} {'workers':>7} {'epoch_s':>9} {'compute_s':>10} "
              f"{'comm_s':>8} {'peak_MB':>9} {'comm_MB':>9} {'OOM':>4}")
    print(header)
    for row in rows:
        print(f"{row.label:<16} {row.num_workers:>7d} {row.epoch_time_s:>9.3f} "
              f"{row.compute_time_s:>10.3f} {row.comm_time_s:>8.3f} "
              f"{row.peak_memory_mb:>9.2f} {row.comm_mb_per_epoch:>9.2f} "
              f"{'yes' if row.oom else 'no':>4}")


def attach_rows(benchmark, rows: List[ScalingRow]) -> None:
    """Store the reproduced rows in the pytest-benchmark report (extra_info)."""
    benchmark.extra_info["rows"] = [row.as_dict() for row in rows]


