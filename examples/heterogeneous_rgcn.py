"""Distributed R-GCN training on a heterogeneous graph (paper Appendix A).

Trains a 3-layer relational GCN with basis decomposition on the synthetic
ogbn-mag-mini graph (4 edge types), partitioned over 4 simulated workers with
SAR.  Because the relational aggregation's parameter gradients need the
neighbour feature values, this is SAR's "case 2": remote features are
re-fetched during the backward pass, trading communication for the large
memory savings reported in the paper's Figure 7.

Run with:  python examples/heterogeneous_rgcn.py
"""

from __future__ import annotations

from repro import nn
from repro.core import SARConfig
from repro.datasets import ogbn_mag_mini
from repro.training import DistributedTrainer, TrainingConfig
from repro.utils.seed import set_seed


def main() -> None:
    set_seed(0)
    dataset = ogbn_mag_mini(scale=0.5)
    relations = dataset.graph.relation_names
    print("Dataset:", dataset.summary())
    print("Relations:", {r: len(src) for r, (src, _) in dataset.graph.relation_edges.items()})

    def factory(in_features: int) -> nn.Module:
        return nn.RGCNNet(in_features, hidden_features=32,
                          num_classes=dataset.num_classes,
                          relation_names=relations, num_bases=2, dropout=0.3)

    results = {}
    for mode in ("sar", "dp"):
        set_seed(0)
        trainer = DistributedTrainer(
            dataset, factory, num_workers=4, sar_config=SARConfig(mode=mode),
            config=TrainingConfig(num_epochs=20, lr=0.01, eval_every=10),
        )
        results[mode] = trainer.run()

    for mode, run in results.items():
        print(f"\n[{mode}] final accuracies: {run.training.final_accuracies}")
        print(f"[{mode}] peak memory per worker: "
              f"{max(run.cluster.peak_memory_mb):.2f} MB, "
              f"communication {run.cluster.total_bytes_communicated / 2**20:.1f} MB")
    ratio = (max(results['dp'].cluster.peak_memory_mb)
             / max(results['sar'].cluster.peak_memory_mb))
    print(f"\nSAR needs {1/ratio:.0%} of the memory vanilla DP needs "
          f"(paper reports 26%–37% for R-GCN on ogbn-mag).")


if __name__ == "__main__":
    main()
