"""Ablation benchmarks for the design choices described in docs/architecture.md.

Not a paper figure, but each section of the paper motivates a mechanism whose
effect can be isolated:

* §3.4 stable softmax — disabling the running-max correction makes incremental
  attention aggregation overflow for large attention logits;
* §3.4 prefetching — keeping one extra remote partition resident (3/N instead
  of 2/N) raises SAR's peak memory but stays below vanilla DP;
* §4.2 METIS partitioning — the partitioner's edge cut (and therefore the halo
  size / communication volume) is far smaller than random partitioning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunningSoftmaxAccumulator, SARConfig
from repro.datasets import ogbn_products_mini
from repro.distributed import run_distributed
from repro.partition import (
    PartitionBook,
    create_shards,
    edge_cut,
    partition_graph,
)
from repro.tensor import EdgePlan, Tensor
from repro.utils.seed import set_seed


def _stable_softmax_ablation():
    rng = np.random.default_rng(0)
    num_nodes, heads, dim, num_edges = 50, 4, 8, 2000
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    logits = (45.0 * rng.standard_normal((num_edges, heads))).astype(np.float32)
    values = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)

    results = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for stable in (True, False):
            acc = RunningSoftmaxAccumulator(num_nodes, heads, dim, stable=stable)
            for chunk in np.array_split(np.arange(num_edges), 8):
                plan = EdgePlan(src[chunk], dst[chunk], num_nodes, num_nodes)
                acc.add_block_sorted(plan.sort_edges(logits[chunk]), values, plan)
            results[stable] = acc.finalize()
    return results


def _prefetch_ablation(dataset):
    assignment = partition_graph(dataset.graph, 4, seed=0)
    book = PartitionBook(assignment, 4)
    shards = create_shards(dataset.graph, book)
    rng = np.random.default_rng(1)
    heads, dim = 4, 16
    z_full = rng.standard_normal((dataset.num_nodes, heads, dim)).astype(np.float32)
    s_full = rng.standard_normal((dataset.num_nodes, heads)).astype(np.float32)

    peaks = {}
    for label, config in (("sar (2/N)", SARConfig("sar")),
                          ("sar+prefetch (3/N)", SARConfig("sar", prefetch=True)),
                          ("vanilla dp", SARConfig("dp"))):
        def worker(rank, comm, shard, config=config):
            from repro.core import DistributedGraph
            dg = DistributedGraph(shard, comm, config)
            dg.begin_step()
            ids = shard.global_node_ids
            z = Tensor(z_full[ids], requires_grad=True)
            sd = Tensor(s_full[ids], requires_grad=True)
            ss = Tensor(s_full[ids], requires_grad=True)
            (dg.gat_aggregate(z, sd, ss) ** 2).sum().backward()
            return None

        set_seed(0)
        result = run_distributed(worker, 4, worker_args=shards, timeout_s=600)
        peaks[label] = max(result.peak_memory_mb)
    return peaks


def _partition_quality_ablation(dataset):
    quality = {}
    for method in ("metis", "contiguous", "random"):
        assignment = partition_graph(dataset.graph, 8, method=method, seed=0)
        book = PartitionBook(assignment, 8)
        shards = create_shards(dataset.graph, book)
        quality[method] = {
            "edge_cut_fraction": edge_cut(dataset.graph, assignment) / dataset.graph.num_edges,
            "mean_halo": float(np.mean([s.halo_size for s in shards])),
        }
    return quality


def _collect():
    dataset = ogbn_products_mini(scale=0.4)
    return {
        "stable_softmax": _stable_softmax_ablation(),
        "prefetch": _prefetch_ablation(dataset),
        "partition": _partition_quality_ablation(dataset),
    }


@pytest.mark.benchmark(group="ablation")
def test_ablations(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    stable = results["stable_softmax"]
    print("\n=== Ablation — stable running softmax (§3.4) ===")
    print(f"stable=True : finite output = {bool(np.all(np.isfinite(stable[True])))}")
    print(f"stable=False: finite output = {bool(np.all(np.isfinite(stable[False])))}")
    assert np.all(np.isfinite(stable[True]))
    assert not np.all(np.isfinite(stable[False]))

    peaks = results["prefetch"]
    print("\n=== Ablation — prefetching (resident partitions 2/N vs 3/N) ===")
    for label, peak in peaks.items():
        print(f"{label:<22} peak memory {peak:.2f} MB/worker")
    assert peaks["sar (2/N)"] <= peaks["sar+prefetch (3/N)"] <= peaks["vanilla dp"]

    quality = results["partition"]
    print("\n=== Ablation — partition quality (METIS substitute vs random) ===")
    for method, stats in quality.items():
        print(f"{method:<12} edge-cut fraction {stats['edge_cut_fraction']:.3f}  "
              f"mean halo {stats['mean_halo']:.0f} rows")
    assert quality["metis"]["edge_cut_fraction"] < quality["random"]["edge_cut_fraction"]
    assert quality["metis"]["mean_halo"] < quality["random"]["mean_halo"]
    benchmark.extra_info["results"] = {
        "prefetch_peaks_mb": peaks,
        "partition_quality": quality,
    }
