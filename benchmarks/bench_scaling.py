"""Figures 3–7 — SAR against vanilla domain-parallel (DP) training across world sizes.

The paper's scaling figures are one experiment: one model trained under SAR
and under DP at several worker counts.  GraphSage on products (Fig. 3) and
papers (Fig. 5) is case 1: SAR and DP move the same bytes, SAR's peak is at
or below DP's.  GAT (Figs. 4 and 6; SAR+FAK runs the fused attention kernels)
and R-GCN on mag (Fig. 7) are case 2: SAR's backward re-fetch moves more
bytes than DP for a fraction of DP's memory.  Fig. 3 adds the §3.4 halo
prefetch (SAR's bytes) and max-pooling SAGE (case 2); Fig. 6 adds the paper's
missing DP bar, out of memory at the smallest world.  Papers' 32 / 64 / 128
machines are 8 / 16 / 32 here.

Every point is one row of :data:`POINTS`.  :func:`measure` trains it through
``DistributedTrainer`` on a thread cluster and keeps what was measured, per
epoch: the largest per-worker tracked peak (``peak_MB``),
``ClusterRunResult.total_bytes_communicated`` (``wire_MB``), the slowest
rank's thread-CPU time (``cpu_s``) and the wall time of the whole
``DistributedTrainer.run`` (``wall_s``).  ``check_fig3`` … ``check_fig7``
assert each figure's shape; times are never asserted, as the ranks share the
host's cores.  ``-k checks`` runs only the checks' own tests (no training):

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -s [-k fig6]
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List

import pytest

from repro import nn
from repro.core import SARConfig
from repro.training import DistributedTrainer, TrainingConfig
from repro.utils.seed import set_seed


def sage(dataset, point):
    return lambda in_f: nn.GraphSageNet(in_f, 64, dataset.num_classes, dropout=0.0,
                                        aggregator=point.aggregator)


def gat(dataset, point):
    return lambda in_f: nn.GATNet(in_f, 16, dataset.num_classes, num_heads=4,
                                  dropout=0.0, fused=point.fused)


def rgcn(dataset, point):
    return lambda in_f: nn.RGCNNet(in_f, 32, dataset.num_classes,
                                   dataset.graph.relation_names, num_bases=2, dropout=0.0)


@dataclass(frozen=True)
class Point:
    """One figure point: a model under one execution mode at one world size."""

    figure: str
    dataset: str  # session fixture of benchmarks/conftest.py
    model: Callable  # (dataset, point) -> (in_features -> Module)
    label: str
    mode: str  # SARConfig mode
    workers: int
    epochs: int
    fused: bool = False
    prefetch: bool = False
    aggregator: str = "mean"


@dataclass
class Row:
    """What one point measured, per epoch."""

    label: str
    workers: int
    peak_mb: float
    wire_mb: float
    cpu_s: float
    wall_s: float


TITLES = {
    "fig3": "Figure 3 — GraphSage on ogbn-products-mini (SAR vs vanilla DP)",
    "fig4": "Figure 4 — GAT on ogbn-products-mini (SAR / SAR+FAK / vanilla DP)",
    "fig5": "Figure 5 — GraphSage on ogbn-papers-mini (SAR vs vanilla DP)",
    "fig6": "Figure 6 — GAT on ogbn-papers-mini (SAR / SAR+FAK / vanilla DP)",
    "fig7": "Figure 7 — R-GCN on ogbn-mag-mini (SAR vs vanilla DP)",
}
WORLDS = {"fig3": (4, 8, 16), "fig4": (4, 8, 16), "fig5": (8, 16, 32),
          "fig6": (8, 16, 32), "fig7": (4, 8, 16)}

SAR = dict(label="SAR", mode="sar")
FAK = dict(label="SAR+FAK", mode="sar", fused=True)
DP = dict(label="vanilla DP", mode="dp")


def _grid(figure, dataset, model, epochs, *configs):
    return tuple(Point(figure, dataset, model, workers=workers, epochs=epochs, **config)
                 for workers in WORLDS[figure] for config in configs)


POINTS = (
    _grid("fig3", "products_dataset", sage, 2, SAR,
          dict(label="SAR+prefetch", mode="sar", prefetch=True),
          dict(label="SAR max-pool", mode="sar", aggregator="max"), DP)
    + _grid("fig4", "products_dataset", gat, 1, SAR, FAK, DP)
    + _grid("fig5", "papers_dataset", sage, 1, SAR, DP)
    + _grid("fig6", "papers_dataset", gat, 1, SAR, FAK, DP)
    + _grid("fig7", "mag_dataset", rgcn, 1, SAR, DP)
)


def measure(point: Point, dataset) -> Row:
    """Train ``point`` on a thread cluster and return its measurements per epoch."""
    set_seed(0)
    trainer = DistributedTrainer(
        dataset, point.model(dataset, point), num_workers=point.workers,
        sar_config=SARConfig(mode=point.mode, prefetch=point.prefetch),
        config=TrainingConfig(num_epochs=point.epochs, eval_every=0, lr_schedule="none"),
        partition_seed=0, timeout_s=1200.0,
    )
    start = time.perf_counter()
    cluster = trainer.run().cluster
    wall_s = time.perf_counter() - start
    return Row(point.label, point.workers, cluster.max_peak_memory_mb,
               cluster.total_bytes_communicated / point.epochs / 2 ** 20,
               cluster.max_compute_time / point.epochs, wall_s / point.epochs)


def print_figure(title: str, rows: List[Row]) -> None:
    print(f"\n=== {title} ===")
    print(f"{'config':<16} {'workers':>7} {'peak_MB':>9} {'wire_MB':>9} {'cpu_s':>8} {'wall_s':>8}")
    for r in rows:
        print(f"{r.label:<16} {r.workers:>7d} {r.peak_mb:>9.2f} {r.wire_mb:>9.2f} "
              f"{r.cpu_s:>8.3f} {r.wall_s:>8.3f}")


def _by_key(rows: List[Row]) -> Dict[tuple, Row]:
    return {(r.label, r.workers): r for r in rows}


def check_fig3(by_key: Dict[tuple, Row]) -> None:
    for workers in WORLDS["fig3"]:
        sar, dp = by_key[("SAR", workers)], by_key[("vanilla DP", workers)]
        # Case 1: identical communication volume, SAR never uses more memory.
        assert abs(sar.wire_mb - dp.wire_mb) < 0.05 * max(dp.wire_mb, 1e-6), \
            f"SAR and DP wire differ (world {workers})"
        assert sar.peak_mb <= dp.peak_mb * 1.05, f"SAR peak above DP's (world {workers})"
        # Prefetch only reorders fetches: the same volume as SAR.
        pf = by_key[("SAR+prefetch", workers)]
        assert abs(pf.wire_mb - sar.wire_mb) < 0.05 * max(sar.wire_mb, 1e-6), \
            f"prefetch changed the wire (world {workers})"
        # Max-pooling is case 2: the backward re-fetch adds communication.
        pool = by_key[("SAR max-pool", workers)]
        assert pool.wire_mb > sar.wire_mb, f"max-pool wire not above SAR's (world {workers})"
    # Memory per worker decreases as workers are added (Fig. 3b scaling).
    assert by_key[("SAR", 16)].peak_mb < by_key[("SAR", 4)].peak_mb, "SAR peak not shrinking"
    assert by_key[("vanilla DP", 16)].peak_mb < by_key[("vanilla DP", 4)].peak_mb, \
        "DP peak not shrinking"


def check_fig4(by_key: Dict[tuple, Row]) -> None:
    for workers in WORLDS["fig4"]:
        sar, fak, dp = (by_key[("SAR", workers)], by_key[("SAR+FAK", workers)],
                        by_key[("vanilla DP", workers)])
        # Case 2: SAR variants communicate more than DP (backward re-fetch)…
        assert sar.wire_mb > dp.wire_mb * 1.2, f"SAR wire not above DP's (world {workers})"
        # …but use significantly less memory than DP.
        assert sar.peak_mb < dp.peak_mb, f"SAR peak not below DP's (world {workers})"
        assert fak.peak_mb < dp.peak_mb, f"FAK peak not below DP's (world {workers})"
    # Fig. 4b: the memory advantage of SAR over DP grows with the worker count.
    ratio_4 = by_key[("vanilla DP", 4)].peak_mb / by_key[("SAR", 4)].peak_mb
    ratio_16 = by_key[("vanilla DP", 16)].peak_mb / by_key[("SAR", 16)].peak_mb
    assert ratio_16 > ratio_4 * 0.9, "DP/SAR peak ratio not growing"


def check_fig5(by_key: Dict[tuple, Row]) -> None:
    for workers in WORLDS["fig5"]:
        sar, dp = by_key[("SAR", workers)], by_key[("vanilla DP", workers)]
        assert sar.peak_mb <= dp.peak_mb * 1.05, f"SAR peak above DP's (world {workers})"
        assert abs(sar.wire_mb - dp.wire_mb) < 0.05 * max(dp.wire_mb, 1e-6), \
            f"SAR and DP wire differ (world {workers})"
    # Memory per worker roughly halves when the worker count doubles.
    assert by_key[("SAR", 32)].peak_mb < 0.75 * by_key[("SAR", 8)].peak_mb, "SAR peak not shrinking"


def check_fig6(by_key: Dict[tuple, Row]) -> None:
    smallest, largest = WORLDS["fig6"][0], WORLDS["fig6"][-1]
    # The "machine memory": between SAR's and DP's peaks at the smallest world,
    # like the paper's 256 GB machines that fit SAR but not DP.
    budget_mb = 0.5 * (by_key[("SAR", smallest)].peak_mb
                       + by_key[("vanilla DP", smallest)].peak_mb)
    print(f"Figure 6 DP-OOM budget: {budget_mb:.1f} MB/worker")
    assert not by_key[("SAR", smallest)].peak_mb > budget_mb, "SAR over the budget"
    assert not by_key[("SAR+FAK", smallest)].peak_mb > budget_mb, "FAK over the budget"
    # The paper's OOM: vanilla DP does not fit at the smallest worker count.
    assert by_key[("vanilla DP", smallest)].peak_mb > budget_mb, "DP fits the budget"
    for workers in WORLDS["fig6"]:
        sar, fak, dp = (by_key[("SAR", workers)], by_key[("SAR+FAK", workers)],
                        by_key[("vanilla DP", workers)])
        assert sar.peak_mb < dp.peak_mb, f"SAR peak not below DP's (world {workers})"
        assert fak.peak_mb < dp.peak_mb, f"FAK peak not below DP's (world {workers})"
        # Case 2 communication overhead of SAR over DP (≈1.5× in the paper).
        assert sar.wire_mb > dp.wire_mb * 1.2, f"SAR wire not above DP's (world {workers})"
    # Memory advantage of SAR grows with worker count (Fig. 6b).
    ratio_small = by_key[("vanilla DP", smallest)].peak_mb / by_key[("SAR", smallest)].peak_mb
    ratio_large = by_key[("vanilla DP", largest)].peak_mb / by_key[("SAR", largest)].peak_mb
    assert ratio_large > ratio_small * 0.9, "DP/SAR peak ratio not growing"


def check_fig7(by_key: Dict[tuple, Row]) -> None:
    for workers in WORLDS["fig7"]:
        sar, dp = by_key[("SAR", workers)], by_key[("vanilla DP", workers)]
        # Case 2: extra backward communication for SAR …
        assert sar.wire_mb > dp.wire_mb, f"SAR wire not above DP's (world {workers})"
        # … but a significantly smaller memory footprint.
        assert sar.peak_mb < dp.peak_mb, f"SAR peak not below DP's (world {workers})"
    # Memory per worker shrinks with more workers.
    assert by_key[("SAR", 16)].peak_mb < by_key[("SAR", 4)].peak_mb, "SAR peak not shrinking"


CHECKS = {"fig3": check_fig3, "fig4": check_fig4, "fig5": check_fig5,
          "fig6": check_fig6, "fig7": check_fig7}


@pytest.mark.parametrize("figure", list(TITLES))
def test_scaling(figure, benchmark, request):
    points = [p for p in POINTS if p.figure == figure]
    dataset = request.getfixturevalue(points[0].dataset)
    rows = benchmark.pedantic(lambda: [measure(p, dataset) for p in points],
                              rounds=1, iterations=1)
    print_figure(TITLES[figure], rows)
    benchmark.extra_info["rows"] = [asdict(r) for r in rows]
    CHECKS[figure](_by_key(rows))


#: Rows every check accepts: {figure: {label: (peak MB per world, wire MB)}}.
GOOD = {
    "fig3": {"SAR": ((40, 20, 10), 10), "SAR+prefetch": ((40, 20, 10), 10),
             "SAR max-pool": ((40, 20, 10), 15), "vanilla DP": ((42, 21, 10.5), 10)},
    "fig4": {"SAR": ((38, 15, 6), 15), "SAR+FAK": ((28, 14, 5), 15),
             "vanilla DP": ((40, 30, 20), 10)},
    "fig5": {"SAR": ((40, 20, 10), 10), "vanilla DP": ((42, 21, 11), 10)},
    "fig6": {"SAR": ((38, 10, 5), 15), "SAR+FAK": ((19, 9, 4), 15),
             "vanilla DP": ((40, 30, 20), 10)},
    "fig7": {"SAR": ((25, 10, 5), 15), "vanilla DP": ((40, 30, 20), 10)},
}


def _each_world(figure, message, label, field, values):
    return [(figure, f"{message} (world {w})", {(label, w, field): v})
            for w, v in zip(WORLDS[figure], values)]


#: (figure, the assertion message expected, {(label, world, field): value}).
#: Each change breaks exactly that assertion, but at Fig. 6's smallest world,
#: where the budget is midway between SAR's and DP's peaks: "SAR over" and "DP
#: fits" also break SAR's peak ordering there, and FAK's budget implies FAK's.
BROKEN = [
    *_each_world("fig3", "SAR and DP wire differ", "vanilla DP", "wire_mb", (20,) * 3),
    *_each_world("fig3", "SAR peak above DP's", "SAR", "peak_mb", (50.4, 25.2, 12.6)),
    *_each_world("fig3", "prefetch changed the wire", "SAR+prefetch", "wire_mb", (20,) * 3),
    *_each_world("fig3", "max-pool wire not above SAR's", "SAR max-pool", "wire_mb", (10,) * 3),
    ("fig3", "SAR peak not shrinking", {("SAR", 4, "peak_mb"): 10}),
    ("fig3", "DP peak not shrinking", {("vanilla DP", 16, "peak_mb"): 42}),
    *_each_world("fig4", "SAR wire not above DP's", "SAR", "wire_mb", (12,) * 3),
    *_each_world("fig4", "SAR peak not below DP's", "SAR", "peak_mb", (40, 30, 20)),
    *_each_world("fig4", "FAK peak not below DP's", "SAR+FAK", "peak_mb", (40,) * 3),
    ("fig4", "DP/SAR peak ratio not growing",
     {("SAR", 4, "peak_mb"): 20, ("SAR", 16, "peak_mb"): 19}),
    *_each_world("fig5", "SAR peak above DP's", "SAR", "peak_mb", (50.4, 25.2, 13.2)),
    *_each_world("fig5", "SAR and DP wire differ", "vanilla DP", "wire_mb", (20,) * 3),
    ("fig5", "SAR peak not shrinking", {("SAR", 8, "peak_mb"): 12}),
    ("fig6", "SAR over the budget", {("SAR", 8, "peak_mb"): 45}),
    ("fig6", "FAK over the budget", {("SAR+FAK", 8, "peak_mb"): 39.5}),
    ("fig6", "DP fits the budget", {("vanilla DP", 8, "peak_mb"): 38}),
    ("fig6", "SAR peak not below DP's (world 16)", {("SAR", 16, "peak_mb"): 30}),
    ("fig6", "SAR peak not below DP's (world 32)", {("SAR", 32, "peak_mb"): 20}),
    ("fig6", "FAK peak not below DP's (world 16)", {("SAR+FAK", 16, "peak_mb"): 30}),
    ("fig6", "FAK peak not below DP's (world 32)", {("SAR+FAK", 32, "peak_mb"): 20}),
    *_each_world("fig6", "SAR wire not above DP's", "SAR", "wire_mb", (12,) * 3),
    ("fig6", "DP/SAR peak ratio not growing",
     {("SAR", 8, "peak_mb"): 20, ("SAR", 32, "peak_mb"): 15}),
    *_each_world("fig7", "SAR wire not above DP's", "SAR", "wire_mb", (10,) * 3),
    *_each_world("fig7", "SAR peak not below DP's", "SAR", "peak_mb", (40, 30, 20)),
    ("fig7", "SAR peak not shrinking", {("SAR", 4, "peak_mb"): 5}),
]


def _good(figure) -> Dict[tuple, Row]:
    return {(label, w): Row(label, w, peaks[i], wire, 1.0, 1.0)
            for label, (peaks, wire) in GOOD[figure].items()
            for i, w in enumerate(WORLDS[figure])}


@pytest.mark.parametrize("figure", list(TITLES))
def test_checks_accept_rows_that_hold(figure):
    CHECKS[figure](_good(figure))


@pytest.mark.parametrize("figure, message, change", BROKEN,
                         ids=[f"{f}: {m}" for f, m, _ in BROKEN])
def test_checks_reject_rows_that_break_one_assertion(figure, message, change):
    by_key = _good(figure)
    for (label, workers, field), value in change.items():
        by_key[label, workers] = replace(by_key[label, workers], **{field: value})
    with pytest.raises(AssertionError, match=re.escape(message)):
        CHECKS[figure](by_key)
