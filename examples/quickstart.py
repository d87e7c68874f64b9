"""Quickstart: distributed full-batch GNN training with SAR.

Trains a 3-layer GraphSage network on the synthetic ogbn-products-mini graph,
partitioned across 4 simulated workers, using the Sequential Aggregation and
Rematerialization (SAR) execution mode.  Shows the three things the paper says
a user has to do on top of ordinary single-machine code:

1. partition the graph and give each worker its shard (handled by
   ``DistributedTrainer``),
2. swap the graph handle the model sees for a distributed one (handled by the
   trainer's worker loop),
3. synchronize parameter gradients once per iteration (also handled).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import nn
from repro.core import SARConfig
from repro.datasets import ogbn_products_mini
from repro.training import DistributedTrainer, TrainingConfig
from repro.utils.seed import set_seed


def main() -> None:
    set_seed(0)

    dataset = ogbn_products_mini(scale=0.5)
    print("Dataset:", dataset.summary())

    def model_factory(in_features: int) -> nn.Module:
        return nn.GraphSageNet(in_features, hidden_features=64,
                               num_classes=dataset.num_classes, dropout=0.3)

    trainer = DistributedTrainer(
        dataset,
        model_factory,
        num_workers=4,
        sar_config=SARConfig(mode="sar"),
        config=TrainingConfig(num_epochs=30, lr=0.01, eval_every=10),
    )
    result = trainer.run()

    print("\nTraining curve (epoch, loss):")
    for record in result.training.records[::5]:
        print(f"  epoch {record.epoch:3d}  loss {record.loss:.4f}  lr {record.lr:.4f}")
    print("\nFinal accuracies:", result.training.final_accuracies)
    print("Peak memory per worker (MB):",
          [round(m, 2) for m in result.cluster.peak_memory_mb])
    print("Total communication (MB):",
          round(result.cluster.total_bytes_communicated / 2**20, 1))


if __name__ == "__main__":
    main()
