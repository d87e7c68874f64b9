"""Compare execution modes for distributed GAT training (paper Figs. 4 and 2).

Runs the same 3-layer GAT network on ogbn-products-mini under three
configurations on an 8-worker simulated cluster:

* vanilla domain-parallel training (halo + attention tensors kept alive),
* plain SAR (sequential aggregation, backward re-fetch),
* SAR + fused attention kernels (SAR+FAK).

and prints what each measured — the per-worker peak memory, communication
volume, the slowest rank's CPU time and the run's wall time per epoch — the
quantities plotted in the paper's Figure 4.

Run with:  python examples/gat_fused_attention.py
"""

from __future__ import annotations

import time

from repro import nn
from repro.core import SARConfig
from repro.datasets import ogbn_products_mini
from repro.training import DistributedTrainer, TrainingConfig
from repro.utils.seed import set_seed

NUM_WORKERS = 8
NUM_EPOCHS = 2


def run_mode(dataset, mode: str, fused: bool, label: str):
    set_seed(0)

    def factory(in_features: int) -> nn.Module:
        return nn.GATNet(in_features, hidden_per_head=16, num_classes=dataset.num_classes,
                         num_heads=4, dropout=0.0, fused=fused)

    trainer = DistributedTrainer(
        dataset, factory, num_workers=NUM_WORKERS, sar_config=SARConfig(mode=mode),
        config=TrainingConfig(num_epochs=NUM_EPOCHS, eval_every=0),
    )
    start = time.perf_counter()
    cluster = trainer.run().cluster
    wall_s = time.perf_counter() - start
    return {
        "label": label,
        "peak_memory_mb": cluster.max_peak_memory_mb,
        "comm_mb_per_epoch": cluster.total_bytes_communicated / NUM_EPOCHS / 2**20,
        "cpu_s": cluster.max_compute_time / NUM_EPOCHS,
        "wall_s": wall_s / NUM_EPOCHS,
    }


def main() -> None:
    dataset = ogbn_products_mini(scale=0.5)
    rows = [
        run_mode(dataset, "dp", fused=False, label="vanilla DP"),
        run_mode(dataset, "sar", fused=False, label="SAR"),
        run_mode(dataset, "sar", fused=True, label="SAR+FAK"),
    ]
    print(f"\n3-layer / 4-head GAT on {dataset.name}, {NUM_WORKERS} workers")
    print(f"{'config':<12} {'peak MB/worker':>15} {'comm MB/epoch':>15} {'CPU s/epoch':>12} "
          f"{'wall s/epoch':>13}")
    for row in rows:
        print(f"{row['label']:<12} {row['peak_memory_mb']:>15.2f} "
              f"{row['comm_mb_per_epoch']:>15.2f} {row['cpu_s']:>12.3f} {row['wall_s']:>13.3f}")
    dp, sar = rows[0], rows[1]
    print(f"\nSAR uses {dp['peak_memory_mb'] / sar['peak_memory_mb']:.1f}x less "
          f"memory than vanilla DP at the cost of "
          f"{sar['comm_mb_per_epoch'] / dp['comm_mb_per_epoch']:.2f}x the communication.")


if __name__ == "__main__":
    main()
