#!/usr/bin/env python3
"""Repeatability of the benchmark: two alternating sets of full runs of one commit.

    python3 benchmarks/e2e/repeat.py --runs 10 --markdown benchmarks/e2e/REPEATABILITY.md

For every workload, runs ``run.py`` ``--runs`` times for set A and for set B,
alternating A, B, A, B ... with a different ``--seed`` each time (what the
driver that gates later changes does).  Per workload x end-to-end metric it
prints both medians, the interquartile range of each set as a share of its
median (``statistics.quantiles(values, n=4)``), how much worse B's median is
than A's, and the bound from ``BENCHMARK.json``.  Exit status 1 when a spread
(``setup_s`` excepted) or a median difference exceeds its bound, or an op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    """Interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    parser.add_argument("--markdown", default=None, help="also write the table here")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    lines = [
        f"Two alternating sets of {args.runs} runs, {spec['run_seconds']} s each, a new seed every "
        f"run ({time.strftime('%Y-%m-%d')}).  `iqr` = interquartile range / median within a set; "
        "`B vs A` = how much worse set B's median is (negative = better).",
        "",
        "| workload | metric | median A | median B | iqr A | iqr B | B vs A | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    status = 0
    for workload in workloads:
        sets = ([], [])
        failed = 0
        for index in range(2 * args.runs):
            result = run_once(workload, seed=index, seconds=spec["run_seconds"])
            failed += result["failed"] + (not result["correct"])
            sets[index % 2].append(result["metrics"])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets[0]]
            b = [m[name]["value"] for m in sets[1]]
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            spreads = (spread(a), spread(b))
            ok = worse <= bound and failed == 0 and (name == "setup_s" or max(spreads) <= bound)
            status |= not ok
            lines.append(
                f"| {workload} | {name} ({metric['unit']}) | {statistics.median(a):.4f} | "
                f"{statistics.median(b):.4f} | {spreads[0]:.3f} | {spreads[1]:.3f} | "
                f"{worse:+.3f} | {bound} | {'yes' if ok else 'NO'} |"
            )
        print("\n".join(lines[-len(spec["end_to_end"]):]), flush=True)
    table = "\n".join(lines) + "\n"
    print(table)
    if args.markdown:
        Path(args.markdown).write_text("# Repeatability of `benchmarks/e2e`\n\n" + table)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
