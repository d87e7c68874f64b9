#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark, with a verdict.

    python3 tools/ab_pairs.py --workload train_sar_gat_w2 --pairs 10
    python3 tools/ab_pairs.py --workload serve_hot_local --pairs 5 --parent HEAD~1 --first-seed 301
    python3 tools/ab_pairs.py --workload all --pairs 10          # a simplification PR, judged in reverse

The *change* is this checkout as it stands (committed or not); the *parent*
is ``--parent`` (default ``HEAD``), checked out into a temporary ``git
worktree`` that is removed again on exit.  Each pair runs
``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once on each side
with the same seed — a new seed per pair, counted up from ``--first-seed``;
pass seeds the change was not developed on — and the side that runs first
alternates from pair to pair, so drift in the machine's load falls on both.
``--workload`` may be given more than once, or as ``all``; each workload gets
its own pairs and its own table.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs the change won (ties count for neither side)
and a verdict by the rule of the choosing-metrics guide, section 8:

* ``gain`` — the change wins at least nine tenths of the pairs run **and** the
  medians differ by more than the parent's inter-quartile range;
* ``regression`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — neither, and the parent's own inter-quartile range is
  wider than the bound, so "unchanged" cannot be told from "worse";
* ``within bound`` — otherwise.

When the change failed more ops than the parent, no verdict stands: each
prints as ``void (change failed N ops)``.  Whenever an op failed, the seeds
whose ops failed are listed per side.

After the pairs of a workload, one ``--seed 0 --trace 1`` run per side lists
every per-layer *counter* whose value differs — the cells that repeat digit
for digit between two runs of the same code, so any difference is the
change's.  Timings (``*_ms``), the harness's own cells (``harness.*``) and
the cells in :data:`MEASURED` vary run to run and are left out.

The tool reads ``BENCHMARK.json`` and runs ``benchmarks/e2e/run.py``; it never
edits either.  Exit status 1 when a run fails, an op fails on the change side
more often than on the parent side, or a metric regresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: per-layer cells that are a ratio of two timings, or memory as the OS reports it
MEASURED = {"core.sar_over_dp_epoch", "sample.layerwise_over_full", "serving.mp_over_local",
            "distributed.wait_share", "distributed.child_peak_rss_mb"}


@contextmanager
def parent_checkout(rev: str) -> Iterator[Path]:
    """``rev`` checked out into a temporary worktree of this repository."""
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        path = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(path), rev],
                       check=True, capture_output=True, text=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                           check=False, capture_output=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                           check=False, capture_output=True)


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run in ``checkout``; its final JSON line."""
    command = [sys.executable, str(checkout / RUNNER), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=1800, cwd=checkout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; one sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """Compare paired samples of one metric (``parent[i]`` and ``change[i]`` share a seed)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (p_med - c_med)  # > 0: the change is better
    iqr = p_q3 - p_q1
    if wins >= 0.9 * len(parent) and improvement > iqr:
        name = "gain"
    elif -improvement > bound * abs(p_med):
        name = "regression"
    elif iqr > bound * abs(p_med):
        name = "unresolved"
    else:
        name = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "delta": (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins, "losses": losses, "pairs": len(parent), "verdict": name}


def counter_differences(parent: dict, change: dict) -> List[tuple]:
    """``(name, parent value, change value)`` of every exact per-layer counter that differs."""
    return [
        (name, entry["value"], change[name]["value"])
        for name, entry in parent.items()
        if not (name.endswith("_ms") or name.startswith("harness.") or name in MEASURED)
        and entry["value"] != change[name]["value"]
    ]


def compare(workload: str, args, spec: dict, roots: Dict[str, Path]) -> int:
    """The pairs, the table and the counter diff of one workload; 1 if it fails the change."""
    samples: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in spec["end_to_end"]} for side in ("parent", "change")}
    failed = {"parent": 0, "change": 0}
    failed_seeds: Dict[str, List[str]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            result = run_once(roots[side], workload, seed)
            failed[side] += result["failed"]
            if result["failed"]:
                failed_seeds[side].append(f"{seed} ({result['failed']})")
            for name, entry in result["metrics"].items():
                samples[side][name].append(entry["value"])
                row[side, name] = entry["value"]
        print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} ({order[0]} first): "
              + "  ".join(
                  f"{m['name']} {row['parent', m['name']]:.4g}/{row['change', m['name']]:.4g}"
                  for m in spec["end_to_end"]), flush=True)

    print(f"\n{workload}: {args.pairs} alternating pairs, parent {args.parent} vs this "
          f"checkout, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}; "
          f"failed ops parent {failed['parent']}, change {failed['change']}")
    if failed["parent"] or failed["change"]:
        print("seeds with failed ops (count): " + "; ".join(
            f"{side} {', '.join(failed_seeds[side]) or 'none'}" for side in ("parent", "change")))
    void = failed["change"] > failed["parent"]
    print(f"{'metric':<13}{'parent med [q1, q3]':>34}{'change med [q1, q3]':>34}"
          f"{'delta':>9}{'wins':>7}  verdict")
    status = 1 if void else 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = verdict(samples["parent"][name], samples["change"][name],
                    metric["better"], metric["bound"])
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*v[side]) for side in ("parent", "change")]
        shown = f"void (change failed {failed['change']} ops)" if void else v["verdict"]
        print(f"{name:<13}{cells[0]:>34}{cells[1]:>34}{v['delta']:>+9.1%}"
              f"{v['wins']:>4}/{v['pairs']:<2}  {shown}"
              f" ({metric['better']} is better, bound {metric['bound']:.0%})")
        if v["verdict"] == "regression":
            status = 1

    traced = {side: run_once(roots[side], workload, 0, trace=1) for side in ("parent", "change")}
    differences = counter_differences(traced["parent"]["metrics"], traced["change"]["metrics"])
    print(f"exact per-layer counters (--seed 0 --trace 1) that differ: {len(differences)}")
    for name, before, after in differences:
        print(f"  {name}: {before:.6g} -> {after:.6g}")
    print(flush=True)
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append", choices=workloads + ["all"],
                        help="repeatable; 'all' stands for every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True,
                        help="parent/change pairs (the guide asks for >= 10 to claim a gain)")
    parser.add_argument("--parent", default="HEAD", help="revision the change is compared against")
    parser.add_argument("--first-seed", type=int, default=101,
                        help="seed of the first pair; pair i uses first-seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    chosen = workloads if "all" in args.workload else list(dict.fromkeys(args.workload))

    with parent_checkout(args.parent) as parent_root:
        roots = {"parent": parent_root, "change": ROOT}
        # every workload runs, so one regression does not hide the next
        return max([compare(workload, args, spec, roots) for workload in chosen])


if __name__ == "__main__":
    sys.exit(main())
