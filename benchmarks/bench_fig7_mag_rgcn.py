"""Figure 7 (Appendix A) — R-GCN on ogbn-mag: epoch time and peak memory.

Paper setup: a 3-layer R-GCN on the heterogeneous ogbn-mag graph (4 edge
types) over 4 / 8 / 16 machines, SAR vs vanilla domain-parallel.  Expected
shape: the relational aggregation is "case 2" (its gradient needs the
neighbour features), so SAR re-fetches during the backward pass and its epoch
time lags DP, but it only needs a fraction of DP's memory (26–37 % in the
paper).
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows, print_figure, run_scaling_point
from repro import nn

WORKER_COUNTS = (4, 8, 16)


def _factory(dataset):
    relations = dataset.graph.relation_names
    return lambda in_f: nn.RGCNNet(in_f, 32, dataset.num_classes, relations,
                                   num_bases=2, dropout=0.0)


def _collect(dataset):
    rows = []
    for workers in WORKER_COUNTS:
        for mode, label in (("sar", "SAR"), ("dp", "vanilla DP")):
            rows.append(
                run_scaling_point(
                    dataset, _factory(dataset), num_workers=workers,
                    mode=mode, label=label, num_epochs=1,
                )
            )
    return rows


@pytest.mark.benchmark(group="fig7")
def test_fig7_rgcn_mag_scaling(benchmark, mag_dataset):
    rows = benchmark.pedantic(lambda: _collect(mag_dataset), rounds=1, iterations=1)
    print_figure("Figure 7 — R-GCN on ogbn-mag-mini (SAR vs vanilla DP)", rows)
    attach_rows(benchmark, rows)

    by_key = {(r.label, r.num_workers): r for r in rows}
    for workers in WORKER_COUNTS:
        sar, dp = by_key[("SAR", workers)], by_key[("vanilla DP", workers)]
        # Case 2: extra backward communication for SAR …
        assert sar.comm_mb_per_epoch > dp.comm_mb_per_epoch
        # … but a significantly smaller memory footprint.
        assert sar.peak_memory_mb < dp.peak_memory_mb
    # Memory per worker shrinks with more workers.
    assert by_key[("SAR", 16)].peak_memory_mb < by_key[("SAR", 4)].peak_memory_mb
