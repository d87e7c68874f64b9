"""Online serving latency/throughput: micro-batching and embedding caching.

A deployed model answers ``predict(node_ids)`` requests from concurrent
clients, and per-request sequential execution compiles and runs one
receptive-field pipeline per request — most of it redundant across the
overlapping, popularity-skewed requests real traffic produces.  A
:class:`repro.serving.Server` over the local executor attacks the redundancy twice:
**micro-batching** coalesces requests arriving within a short window into
one deduplicated pipeline execution, and the **historical-embedding cache**
prunes each batch's receptive field node by node: a row already computed by
earlier traffic is a leaf, only the missed rows expand and are computed (a
fully cached seed set skips compute entirely).

This benchmark drives a closed-loop concurrent workload — ``clients``
threads, each issuing single-node requests drawn from a Zipf-skewed
popularity distribution over the papers100M-like graph — through four
server configurations:

* ``sequential``      — ``window_ms=0``, no cache: one request per execution;
* ``microbatch``      — coalescing window on, no cache;
* ``microbatch_cold`` — window + embedding cache, starting empty;
* ``microbatch_warm`` — same server, same request sequence replayed with the
  cache warm from the cold pass.

and reports per-request p50/p99 latency and sustained requests/sec.  A
second sweep replays the traffic against a deliberately undersized cache
twice — plain LRU admission vs the TinyLFU-style frequency gate
(``cache_admission="frequency"``) — and reports the warm-pass hit-rate
delta the gate buys by refusing to let one-off tail rows evict the hot
head.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # CI gate

Correctness gates (asserted in both modes):

* every served logit row is **bit-identical** to the corresponding row of
  the full-graph ``model(graph, features)`` eval-mode forward, in every
  configuration (cache on/off, window on/off, cold/warm);
* the warm-cache pass has strictly lower p50 latency than the cold pass.

Full mode additionally asserts micro-batching sustains at least **2x** the
sequential configuration's requests/sec.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.datasets import ogbn_papers_mini
from repro.nn.models import GraphSageNet
from repro.serving import ServingConfig, create_server
from repro.tensor import Tensor, no_grad
from repro.tensor.edge_plan import shared_plan_cache
from repro.utils.seed import set_seed

FULL_SIZES = dict(
    scale=2.0,
    num_layers=3,
    hidden=128,
    clients=16,
    requests_per_client=100,
    window_ms=4.0,
    cache_mb=256,
    small_cache_kb=512,
    zipf_a=1.1,
)
SMOKE_SIZES = dict(
    scale=0.5,
    num_layers=2,
    hidden=64,
    clients=4,
    requests_per_client=25,
    window_ms=4.0,
    cache_mb=64,
    small_cache_kb=128,
    zipf_a=1.1,
)


def zipf_workload(num_nodes, clients, requests_per_client, a, seed=0):
    """Per-client request streams with Zipf-skewed node popularity.

    Node popularity rank is a seeded permutation of the id space and request
    ``i`` of every client draws ``P(rank r) ∝ 1 / (r + 1)^a`` — the heavy
    head (a few very popular nodes) plus long tail that makes an embedding
    cache earn its keep.
    """
    rng = np.random.default_rng(seed)
    ranked = rng.permutation(num_nodes)
    weights = 1.0 / np.power(np.arange(1, num_nodes + 1, dtype=np.float64), a)
    probs = weights / weights.sum()
    return [
        rng.choice(ranked, size=requests_per_client, p=probs)
        for _ in range(clients)
    ]


def run_workload(server, streams, reference):
    """Drive the closed loop; return (p50_ms, p99_ms, requests/sec).

    Every client thread issues its stream's requests back-to-back (a new
    request the moment the previous one resolves), records per-request
    latency, and asserts each response row is bit-identical to the
    full-graph ``reference`` logits.
    """
    latencies = [None] * len(streams)
    errors = []
    barrier = threading.Barrier(len(streams) + 1)

    def client(index, stream):
        mine = np.empty(len(stream), dtype=np.float64)
        try:
            barrier.wait()
            for i, node in enumerate(stream):
                start = time.perf_counter()
                row = server.predict([int(node)])
                mine[i] = time.perf_counter() - start
                if not np.array_equal(row[0], reference[node]):
                    raise AssertionError(
                        f"served logits for node {node} diverged from the "
                        f"full-graph forward"
                    )
            latencies[index] = mine
        except BaseException as exc:  # surface in the main thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client, args=(i, s), daemon=True)
        for i, s in enumerate(streams)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    all_lat = np.concatenate(latencies) * 1e3
    total = sum(len(s) for s in streams)
    return (
        float(np.percentile(all_lat, 50)),
        float(np.percentile(all_lat, 99)),
        total / wall if wall > 0 else float("inf"),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload + parity/warm-cache assertions (CI gate)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "JSON output path (default: BENCH_serving.json next to this "
            "script's repo root; smoke runs write no file unless set)"
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

    def measure(name, window_ms, cache_bytes_opt, warm_from=None,
                admission="none"):
        """One configuration: fresh server unless continuing ``warm_from``.

        Counters are reported per phase (the warm pass reuses the cold
        pass's server, so its server-lifetime stats are differenced).
        """
        if warm_from is not None:
            server = warm_from
            before = server.stats()
        else:
            shared_plan_cache().clear()
            server = create_server(
                model, graph, features,
                ServingConfig(
                    window_ms=window_ms,
                    byte_budget=cache_bytes_opt,
                    cache_admission=admission,
                ),
            ).start()
            before = None
        p50, p99, rps = run_workload(server, streams, reference)
        stats = server.stats()

        def phase(key, sub=None):
            now = stats[sub][key] if sub else stats[key]
            if before is None:
                return now
            return now - (before[sub][key] if sub else before[key])

        results[name] = {
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "requests_per_sec": round(rps, 1),
            "batches": phase("batches"),
            "max_requests_in_batch": stats["max_requests_in_batch"],
            "fast_path_batches": phase("fast_path_batches"),
        }
        if stats["embedding_cache"] is not None:
            hits = phase("hits", "embedding_cache")
            misses = phase("misses", "embedding_cache")
            results[name]["cache_hits"] = hits
            results[name]["cache_misses"] = misses
            results[name]["cache_hit_rate"] = round(
                hits / max(hits + misses, 1), 4
            )
            results[name]["cache_rejected_admissions"] = phase(
                "rejected_admissions", "embedding_cache"
            )
        print(
            f"{name:<18} p50={p50:>8.3f}ms p99={p99:>8.3f}ms "
            f"{rps:>8.1f} req/s  batches={stats['batches']}"
        )
        print(f"parity: {name} served logits bit-identical to full-graph forward")
        return server

    measure("sequential", 0.0, None).stop()
    measure("microbatch", sizes["window_ms"], None).stop()
    cached = measure("microbatch_cold", sizes["window_ms"], cache_bytes)
    measure("microbatch_warm", sizes["window_ms"], cache_bytes,
            warm_from=cached).stop()

    # Admission-gate comparison: the same traffic against a cache far too
    # small for the working set, plain-LRU vs the frequency gate.  The cold
    # pass trains the frequency sketch; the warm pass measures the hit rate
    # the retained rows deliver.  Window 0 keeps batches single-seed, so
    # the hit rate is per request: cache probes are per node, and a
    # coalesced batch probes the union of its seeds' miss subtrees once,
    # which would blur which request's rows the small cache retained.
    small_bytes = sizes["small_cache_kb"] * 1024
    lru = measure("smallcache_lru_cold", 0.0, small_bytes)
    measure("smallcache_lru_warm", 0.0, small_bytes, warm_from=lru).stop()
    lfu = measure("smallcache_gated_cold", 0.0, small_bytes,
                  admission="frequency")
    measure("smallcache_gated_warm", 0.0, small_bytes,
            warm_from=lfu, admission="frequency").stop()
    lru_rate = results["smallcache_lru_warm"]["cache_hit_rate"]
    gated_rate = results["smallcache_gated_warm"]["cache_hit_rate"]
    results["admission_gate"] = {
        "small_cache_kb": sizes["small_cache_kb"],
        "lru_warm_hit_rate": lru_rate,
        "gated_warm_hit_rate": gated_rate,
        "hit_rate_delta": round(gated_rate - lru_rate, 4),
    }
    print(
        f"admission gate @ {sizes['small_cache_kb']}KB: warm hit rate "
        f"{lru_rate:.1%} (LRU) vs {gated_rate:.1%} (frequency-gated), "
        f"delta {gated_rate - lru_rate:+.1%}"
    )

    assert results["microbatch_warm"]["p50_ms"] < results["microbatch_cold"]["p50_ms"], (
        f"warm-cache p50 {results['microbatch_warm']['p50_ms']}ms is not below "
        f"cold-cache p50 {results['microbatch_cold']['p50_ms']}ms"
    )
    if not args.smoke:
        seq_rps = results["sequential"]["requests_per_sec"]
        mb_rps = results["microbatch"]["requests_per_sec"]
        assert mb_rps >= 2.0 * seq_rps, (
            f"micro-batching sustains {mb_rps} req/s, below 2x the "
            f"sequential {seq_rps} req/s"
        )

    total = sizes["clients"] * sizes["requests_per_client"]
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges, "
        f"{sizes['num_layers']} layers, {sizes['clients']} clients x "
        f"{sizes['requests_per_client']} requests ({total} total), "
        f"window={sizes['window_ms']}ms, cache={sizes['cache_mb']}MB"
    )

    report = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "sizes": dict(sizes),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        },
        "results": results,
    }
    output = args.output
    if output is None and not args.smoke:
        output = str(Path(__file__).resolve().parent.parent / "BENCH_serving.json")
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
