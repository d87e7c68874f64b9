"""Micro-benchmarks of the EdgePlan kernel layer vs. the naive reference path.

Times the message-passing primitives (segment reductions, multi-head weighted
aggregation, edge softmax) and one full GAT / GraphSage training iteration
with plans enabled vs. globally disabled (identical call sites, naive
scipy/``ufunc.at`` kernels), and writes the measurements to
``BENCH_kernels.json`` — the repo's committed perf-trajectory point.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI gate

``--smoke`` runs tiny sizes, additionally asserts numerical parity between
the plan and naive paths (exit code 1 on mismatch), and skips writing the
JSON unless ``--output`` is given explicitly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # script execution without PYTHONPATH=src
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import nn
from repro.graph import Graph
from repro.tensor import Tensor, edge_plan
from repro.tensor.edge_plan import EdgePlan, plans_disabled
from repro.tensor.optim import Adam
from repro.tensor.sparse import (
    edge_softmax,
    segment_max_np,
    segment_sum_np,
    u_mul_e_sum,
    u_mul_e_sum_np,
)
from repro.utils.seed import set_seed

FULL_SIZES = dict(num_nodes=5000, num_edges=200_000, heads=8, dim=32,
                  epoch_heads=4, epoch_dim=16, feature_dim=32, repeats=5)
SMOKE_SIZES = dict(num_nodes=200, num_edges=2000, heads=2, dim=8,
                   epoch_heads=2, epoch_dim=8, feature_dim=8, repeats=1)


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` runs (after one untimed warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _row(name: str, naive_s: float, plan_s: float) -> dict:
    return {
        "naive_ms": round(naive_s * 1e3, 3),
        "plan_ms": round(plan_s * 1e3, 3),
        "speedup": round(naive_s / plan_s, 2) if plan_s > 0 else float("inf"),
    }


def bench_segment_ops(rng, sizes, results):
    n, h = sizes["num_nodes"], sizes["heads"]
    # Distinct (dst, src) pairs in random order.
    pairs = rng.permutation(np.unique(rng.integers(0, n * n, sizes["num_edges"])))
    dst, src = pairs // n, pairs % n
    e = len(pairs)
    vals = rng.standard_normal((e, h)).astype(np.float32)
    plan = EdgePlan(src, dst, n, n)

    naive = _best_of(lambda: segment_sum_np(vals, dst, n), sizes["repeats"])
    fast = _best_of(lambda: plan.segment_sum(vals), sizes["repeats"])
    results["segment_sum"] = _row("segment_sum", naive, fast)

    naive = _best_of(lambda: segment_max_np(vals, dst, n), sizes["repeats"])
    fast = _best_of(lambda: plan.segment_max(vals), sizes["repeats"])
    results["segment_max"] = _row("segment_max", naive, fast)
    return plan


def bench_u_mul_e_sum(rng, sizes, plan, results, check_parity):
    """The multi-head weighted-aggregation kernel pair (forward + transpose).

    The SDDMM computing ``grad_w`` is a separate kernel that is identical on
    both paths, so the micro-benchmark isolates the kernels the plan
    replaces: H fresh COO→CSR builds per pass vs. one head-blocked SpMM over
    the cached structure, with the weights already in the plan's sorted edge
    space.  Parity is bit-equal at float32 (the edge set has no parallel
    edges, which the fresh CSR would pre-sum).
    """
    n, e, h, d = sizes["num_nodes"], plan.num_edges, sizes["heads"], sizes["dim"]
    src, dst = plan.src, plan.dst
    x_data = rng.standard_normal((n, h, d)).astype(np.float32)
    w_data = rng.standard_normal((e, h)).astype(np.float32)
    g_data = rng.standard_normal((n, h, d)).astype(np.float32)
    w_sorted = plan.sort_edges(w_data)

    def naive_forward():
        return u_mul_e_sum_np(x_data, w_data, src, dst, n)

    def naive_transpose():
        return u_mul_e_sum_np(g_data, w_data, dst, src, n)

    def plan_forward():
        return plan.u_mul_e_sum_sorted(x_data, w_sorted)

    def plan_transpose():
        return plan.u_mul_e_sum_t_sorted(g_data, w_sorted)

    def public_op(use_plan):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        out = u_mul_e_sum(x, w, src, dst, n, plan=plan if use_plan else None)
        out.backward(g_data)
        return out.data, x.grad, w.grad

    if check_parity:
        np.testing.assert_array_equal(plan_forward(), naive_forward())
        np.testing.assert_array_equal(plan_transpose(), naive_transpose())
        for a, b in zip(public_op(True), public_op(False)):
            np.testing.assert_array_equal(a, b)
    naive = _best_of(naive_forward, sizes["repeats"])
    fast = _best_of(plan_forward, sizes["repeats"])
    results["u_mul_e_sum"] = _row("u_mul_e_sum", naive, fast)
    naive = _best_of(naive_transpose, sizes["repeats"])
    fast = _best_of(plan_transpose, sizes["repeats"])
    results["u_mul_e_sum_t"] = _row("u_mul_e_sum_t", naive, fast)


def bench_edge_softmax(rng, sizes, plan, results, check_parity):
    n, e, h = sizes["num_nodes"], plan.num_edges, sizes["heads"]
    scores_data = rng.standard_normal((e, h)).astype(np.float32)
    grad = rng.standard_normal((e, h)).astype(np.float32)

    def run(use_plan):
        scores = Tensor(scores_data, requires_grad=True)
        alpha = edge_softmax(scores, plan.dst, n, plan=plan if use_plan else None)
        alpha.backward(grad)
        return alpha.data, scores.grad

    if check_parity:
        for a, b in zip(run(True), run(False)):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-4)
    naive = _best_of(lambda: run(False), sizes["repeats"])
    fast = _best_of(lambda: run(True), sizes["repeats"])
    results["edge_softmax"] = _row("edge_softmax", naive, fast)


def _epoch_runner(graph, model, features):
    opt = Adam(model.parameters(), lr=1e-3)

    def epoch():
        opt.zero_grad()
        out = model(graph, Tensor(features))
        loss = (out * out).mean()
        loss.backward()
        opt.step()
        return float(loss.data)

    return epoch


def bench_epochs(rng, sizes, results, check_parity):
    n, e = sizes["num_nodes"], sizes["num_edges"]
    src = rng.integers(0, n, e).astype(np.int64)
    dst = rng.integers(0, n, e).astype(np.int64)
    graph = Graph(n, src, dst)
    features = rng.standard_normal((n, sizes["feature_dim"])).astype(np.float32)

    layers = {
        "gat_epoch": lambda: nn.GATConv(sizes["feature_dim"], sizes["epoch_dim"],
                                        num_heads=sizes["epoch_heads"]),
        "sage_epoch": lambda: nn.SageConv(sizes["feature_dim"], sizes["epoch_dim"],
                                          aggregator="mean"),
    }
    for name, factory in layers.items():
        set_seed(0)
        model = factory()
        epoch = _epoch_runner(graph, model, features)
        if check_parity:
            loss_plan = epoch()
            with plans_disabled():
                set_seed(0)
                model_naive = factory()
                loss_naive = _epoch_runner(graph, model_naive, features)()
            np.testing.assert_allclose(loss_plan, loss_naive, rtol=1e-3, atol=1e-5)
        fast = _best_of(epoch, sizes["repeats"])
        with plans_disabled():
            naive = _best_of(epoch, sizes["repeats"])
        results[name] = _row(name, naive, fast)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + parity assertions (CI gate)")
    parser.add_argument("--output", default=None,
                        help="JSON output path (default: BENCH_kernels.json "
                             "next to this script's repo root; smoke runs "
                             "write no file unless set)")
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    rng = np.random.default_rng(0)
    results: dict = {}

    builds_before = edge_plan.build_counter
    plan = bench_segment_ops(rng, sizes, results)
    bench_u_mul_e_sum(rng, sizes, plan, results, check_parity=args.smoke)
    bench_edge_softmax(rng, sizes, plan, results, check_parity=args.smoke)
    bench_epochs(rng, sizes, results, check_parity=args.smoke)

    if args.smoke:
        # Exactly one explicit kernel plan plus the epoch graph's lazy plan
        # (shared by the GAT and SAGE epochs); anything more means the hot
        # path rebuilt sparsity.
        builds = edge_plan.build_counter - builds_before
        assert builds <= 2, f"unexpected plan rebuilds on the hot path: {builds}"

    print(f"{'kernel':<16} {'naive_ms':>10} {'plan_ms':>10} {'speedup':>8}")
    for name, row in results.items():
        print(f"{name:<16} {row['naive_ms']:>10.3f} {row['plan_ms']:>10.3f} "
              f"{row['speedup']:>7.2f}x")

    report = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "sizes": {k: v for k, v in sizes.items() if k != "repeats"},
            "repeats": sizes["repeats"],
            "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        },
        "results": results,
    }
    output = args.output
    if output is None and not args.smoke:
        output = str(Path(__file__).resolve().parent.parent / "BENCH_kernels.json")
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
