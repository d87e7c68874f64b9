"""Distributed serving benchmark: partitioned predict() vs the single machine.

:class:`repro.serving.ShardExecutor` sits behind the same
:class:`repro.serving.Server` ``predict(node_ids)`` surface as the local
executor, but the graph lives as per-worker shards and every batch is computed cooperatively: each worker
executes the restricted grid over the destinations it owns, publishes its
layer rows, and peers fetch only the frontier rows their embedding cache
missed.  This benchmark prices that cooperation: requests/sec and p50/p99
latency at 2 and 4 shards against the single-machine server on the
identical Zipf workload, cold and warm caches, plus the halo / frontier
bytes the cluster moved per pass.

``--backend`` selects the cluster substrate: ``thread``
(``ServingConfig(backend="distributed")``, shard worker threads —
rows named ``shards{N}_*``), ``mp``
(``ServingConfig(backend="mp")``, one forked process
per shard over the shared-memory communicator — rows named ``mp{N}_*``),
or ``both`` (the default, and what the committed baseline contains).  The
mp rows pay a fork per server and a pickled queue hop per request and
response on top of the thread rows' work, a constant tax these tiny
benchmark sizes amortize poorly — the row exists to keep the process
backend's parity and overhead honest, not to win.

Usage::

    PYTHONPATH=src python benchmarks/bench_dist_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_dist_serving.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_dist_serving.py --backend mp

Correctness gates (asserted in both modes):

* every served logit row — from every shard count, cold or warm — is
  **bit-identical** to the corresponding row of the full-graph
  ``model(graph, features)`` eval-mode forward (checked per request by the
  closed-loop clients);
* the warm pass hits the all-logits fast path (cached seed logits answered
  without rebuilding any restricted grid).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _here = Path(__file__).resolve().parent
    for _path in (_here.parent / "src", _here):
        if str(_path) not in sys.path:
            sys.path.insert(0, str(_path))

from bench_serving import run_workload, zipf_workload

from repro.datasets import ogbn_papers_mini
from repro.nn.models import GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.serving import ServingConfig, create_server
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

FULL_SIZES = dict(
    scale=2.0,
    num_layers=2,
    hidden=128,
    clients=8,
    requests_per_client=40,
    window_ms=4.0,
    cache_mb=64,
    zipf_a=1.1,
    worlds=(2, 4),
    # The mp backend forks a process per shard, so it runs the small
    # world only; one row is enough to gate parity and overhead.
    mp_worlds=(2,),
)
SMOKE_SIZES = dict(
    scale=0.5,
    num_layers=2,
    hidden=64,
    clients=3,
    requests_per_client=10,
    window_ms=4.0,
    cache_mb=32,
    zipf_a=1.1,
    worlds=(2,),
    mp_worlds=(2,),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload + parity/fast-path assertions (CI gate)",
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "mp", "both"),
        default="both",
        help=(
            "cluster substrate: shard worker threads, forked shard "
            "processes, or both (default)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "JSON output path (default: BENCH_dist_serving.json next to "
            "this script's repo root; smoke runs write no file unless set)"
        ),
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    dataset = ogbn_papers_mini(scale=sizes["scale"])
    graph, features = dataset.graph, dataset.features

    set_seed(0)
    model = GraphSageNet(
        dataset.feature_dim,
        sizes["hidden"],
        dataset.num_classes,
        num_layers=sizes["num_layers"],
        dropout=0.0,
    )
    model.eval()
    with no_grad():
        reference = model(graph, Tensor(features)).data

    streams = zipf_workload(
        graph.num_nodes, sizes["clients"], sizes["requests_per_client"],
        sizes["zipf_a"],
    )
    cache_bytes = sizes["cache_mb"] * 1024 * 1024
    results: dict = {}

    def drive(name, server, before=None):
        """One workload pass; counters differenced against ``before``."""
        p50, p99, rps = run_workload(server, streams, reference)
        stats = server.stats()

        def phase(key):
            now = stats[key]
            return now if before is None else now - before[key]

        entry = {
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "requests_per_sec": round(rps, 1),
            "batches": phase("batches"),
            "fast_path_batches": phase("fast_path_batches"),
        }
        if stats["workers"] is not None:
            comms = [w["comm"] for w in stats["workers"]]
            entry["halo_mb"] = round(
                sum(c["halo_bytes_received"] for c in comms) / 2**20, 3
            )
            entry["frontier_mb"] = round(
                sum(c["frontier_bytes_received"] for c in comms) / 2**20, 3
            )
            entry["halo_cache_hit_rows"] = sum(
                c["cache_hit_rows"] for c in comms
            )
        print(
            f"{name:<14} p50={p50:>8.3f}ms p99={p99:>8.3f}ms "
            f"{rps:>8.1f} req/s  batches={entry['batches']}"
        )
        print(f"parity: {name} served logits bit-identical to full-graph forward")
        results[name] = entry
        return stats

    serving_config = dict(
        window_ms=sizes["window_ms"], byte_budget=cache_bytes
    )
    with create_server(
        model, graph, features, ServingConfig(**serving_config)
    ) as local:
        drive("local", local)

    def run_cluster(kind, world):
        """Cold + warm passes of one shard cluster; returns the row prefix."""
        prefix = f"shards{world}" if kind == "thread" else f"mp{world}"
        backend = "distributed" if kind == "thread" else "mp"
        book = PartitionBook(partition_graph(graph, world, seed=0), world)
        shards = create_shards(graph, book)
        config = ServingConfig(backend=backend, **serving_config)
        with create_server(model, shards, features, config) as server:
            cold = drive(f"{prefix}_cold", server)
            drive(f"{prefix}_warm", server, before=cold)
        warm = results[f"{prefix}_warm"]
        assert warm["fast_path_batches"] >= 1, (
            f"warm {kind} pass at {world} shards never hit the all-logits "
            f"fast path"
        )
        results[f"{prefix}_summary"] = {
            "rps_vs_local": round(
                warm["requests_per_sec"]
                / max(results["local"]["requests_per_sec"], 1e-9), 3,
            ),
            "cold_halo_mb": results[f"{prefix}_cold"]["halo_mb"],
            "warm_halo_mb": warm["halo_mb"],
        }
        return prefix

    if args.backend in ("thread", "both"):
        for world in sizes["worlds"]:
            run_cluster("thread", world)
    if args.backend in ("mp", "both"):
        for world in sizes["mp_worlds"]:
            run_cluster("mp", world)

    total = sizes["clients"] * sizes["requests_per_client"]
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges, "
        f"{sizes['num_layers']} layers, {sizes['clients']} clients x "
        f"{sizes['requests_per_client']} requests ({total} total), "
        f"window={sizes['window_ms']}ms, cache={sizes['cache_mb']}MB/worker, "
        f"shards={list(sizes['worlds'])} (thread) / "
        f"{list(sizes['mp_worlds'])} (mp), backend={args.backend}"
    )

    report = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "backend": args.backend,
            "sizes": {k: list(v) if isinstance(v, tuple) else v
                      for k, v in sizes.items()},
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        },
        "results": results,
    }
    output = args.output
    if output is None and not args.smoke:
        output = str(
            Path(__file__).resolve().parent.parent / "BENCH_dist_serving.json"
        )
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
