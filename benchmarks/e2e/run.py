#!/usr/bin/env python3
"""End-to-end benchmark: train -> evaluate -> serve, four closed-loop workloads.

    python3 benchmarks/e2e/run.py --workload train_sar_gat_w2 --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload serve_hot_local --trace 1     # per-layer + span file
    python3 benchmarks/e2e/run.py --all                                   # the four, one process each
    python3 benchmarks/e2e/run.py --smoke                                 # tiny, with traces, < 30 s

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer ones.  Everything above it is the human-readable report.  See
``README.md`` beside this file for the metric dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (imports neither numpy nor repro)

WORKLOAD_NAMES = tuple(
    entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
)
SETUP_REPEATS = 3
LOAD = "closed loop, 1 client, 32 outstanding per burst"


def _prepare_process() -> None:
    """Allocator and thread pinning, a checkout-local temp dir; before numpy is imported."""
    harness.pin_malloc_arena(sys.argv)
    harness.pin_threads()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    # multiprocessing.Manager binds a unix socket under the temp dir; the path
    # limit is ~108 bytes, so fall back to the system default in a deep checkout.
    if len(str(tmp)) < 60:
        tmp.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"run.py: the library is not at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _meta(args, workload, calibrator) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "calib_ref_ms": harness.CALIB_REF_MS,
        "machine_factor": calibrator.overall_factor(),
        "calib_samples": len(calibrator.values),
        "workload": workload.name,
        "ops": workload.num_ops,
        "warmup_ops": workload.warmup_ops,
        "load": LOAD if workload.burst else "closed loop, 1 client",
    }


def run_end_to_end(args) -> dict:
    calibrator = harness.Calibrator()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds)
    try:
        setup_intervals = harness.timed_setups(workload, calibrator, args.setups)
        workload.prepare_reference()
        intervals, failed = harness.measure(workload, calibrator, 0, workload.num_ops)
        failed = min(workload.num_ops, failed + workload.finish())
    finally:
        workload.teardown()
    op_ms = harness.normalise(intervals, calibrator.times, calibrator.values)
    setup_ms = harness.normalise(setup_intervals, calibrator.times, calibrator.values)
    stats = harness.summarise(op_ms)
    raw = harness.summarise([(end - start) * 1e3 for start, end in intervals])
    own_rss, child_rss = harness.peak_rss_mb()
    metrics = {
        "setup_s": {"value": statistics.median(setup_ms) / 1e3, "unit": "s"},
        "op_ms_p50": {"value": stats["p50_ms"], "unit": "ms"},
        "ops_per_s": {"value": stats["ops_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": own_rss + child_rss, "unit": "MB"},
    }
    meta = _meta(args, workload, calibrator)
    print(f"== {workload.name}: {meta['load']}; {workload.num_ops} ops, seed {args.seed}")
    print(f"   machine_factor {meta['machine_factor']:.4f} "
          f"(kernel cv {calibrator.cv():.3f}, {meta['calib_samples']} samples); "
          f"raw p50 {raw['p50_ms']:.3f} ms, raw p{raw['tail_q']} {raw['tail_ms']:.3f} ms")
    for name, entry in metrics.items():
        samples = len(setup_ms) if name == "setup_s" else (
            1 if name == "peak_rss_mb" else stats["samples"])
        print(f"   {name:<14}{entry['value']:>14.4f} {entry['unit']:<5} (n={samples})")
    print(f"   op_ms_p{stats['tail_q']:<10}{stats['tail_ms']:>14.4f} ms    "
          f"(n={stats['samples']}; reported, not gated: it measures the host scheduler)")
    print(f"   fail_ratio    {failed / workload.num_ops:>14.4f} ratio ({failed}/{workload.num_ops})")
    print(json.dumps({"meta": meta, "claim": None}))
    return {"correct": failed == 0, "attempted": workload.num_ops, "failed": failed,
            "metrics": metrics}


def run_traced(args) -> dict:
    calibrator = harness.Calibrator()
    import layers
    import workloads

    workload = workloads.make(args.workload, args.seed, min(args.seconds, layers.TRACE_SECONDS))
    recorder = harness.SpanRecorder()
    try:
        values, failed, attempted = layers.trace(workload, recorder, calibrator)
    finally:
        workload.teardown()
    trace_path = OUT / f"trace_{workload.name}.json"
    table_path = OUT / f"self_time_{workload.name}.txt"
    recorder.write(str(trace_path), str(table_path))
    metrics = {}
    print(f"== {workload.name}: per-layer metrics (traced run, seed {args.seed}; "
          f"0 = layer bypassed on this workload)")
    for name, spec in layers.PER_LAYER.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": spec["unit"]}
        if name in values:
            print(f"   {name:<38}{value:>14.4f} {spec['unit']}")
    print(f"   spans: {trace_path.relative_to(ROOT)} (chrome://tracing), "
          f"self times: {table_path.relative_to(ROOT)}")
    print(json.dumps({"meta": _meta(args, workload, calibrator), "claim": None}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a fresh process; ``--smoke`` shrinks them and adds traces."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace),
                       "--seconds", str(0.5 if args.smoke else args.seconds),
                       "--setups", str(1 if args.smoke else args.setups)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
            if not result.get("correct"):
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time on the reference machine; fixes the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run the four workloads")
    parser.add_argument("--smoke", action="store_true",
                        help="the four workloads, tiny op counts, untraced and traced")
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS,
                        help="set-up repetitions whose median is setup_s")
    args = parser.parse_args(argv)
    if args.all or args.smoke:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all / --smoke)")
    _prepare_process()
    result = run_traced(args) if args.trace else run_end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
