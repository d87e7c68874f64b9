"""Figure 5 — GraphSage on ogbn-papers100M: epoch time and peak memory vs workers.

Paper setup: 3-layer GraphSage on ogbn-papers100M over 32 / 64 / 128 machines,
SAR vs vanilla domain-parallel.  The simulated cluster cannot host 128 worker
threads productively, so the worker counts are scaled to 8 / 16 / 32 on the
papers-mini graph (the suite and its measurement model are documented in
docs/benchmarks.md); the claims
being reproduced are identical: equal communication for case-1 aggregation,
SAR memory at or below DP memory, and per-worker memory halving as the worker
count doubles ("SAR can cut memory consumption by half when training the
GraphSage network on 128 machines").
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows, print_figure, run_scaling_point
from repro import nn

WORKER_COUNTS = (8, 16, 32)


def _factory(num_classes):
    return lambda in_f: nn.GraphSageNet(in_f, 64, num_classes, dropout=0.0)


def _collect(dataset):
    rows = []
    for workers in WORKER_COUNTS:
        for mode, label in (("sar", "SAR"), ("dp", "vanilla DP")):
            rows.append(
                run_scaling_point(
                    dataset, _factory(dataset.num_classes), num_workers=workers,
                    mode=mode, label=label, num_epochs=1,
                )
            )
    return rows


@pytest.mark.benchmark(group="fig5")
def test_fig5_graphsage_papers_scaling(benchmark, papers_dataset):
    rows = benchmark.pedantic(lambda: _collect(papers_dataset), rounds=1, iterations=1)
    print_figure("Figure 5 — GraphSage on ogbn-papers-mini (SAR vs vanilla DP)", rows)
    attach_rows(benchmark, rows)

    by_key = {(r.label, r.num_workers): r for r in rows}
    for workers in WORKER_COUNTS:
        sar, dp = by_key[("SAR", workers)], by_key[("vanilla DP", workers)]
        assert sar.peak_memory_mb <= dp.peak_memory_mb * 1.05
        assert abs(sar.comm_mb_per_epoch - dp.comm_mb_per_epoch) < 0.05 * max(
            dp.comm_mb_per_epoch, 1e-6)
    # Memory per worker roughly halves when the worker count doubles.
    assert by_key[("SAR", 32)].peak_memory_mb < 0.75 * by_key[("SAR", 8)].peak_memory_mb
