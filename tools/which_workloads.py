#!/usr/bin/env python3
"""Count the calls one timed op of each benchmark workload makes to named functions.

    python3 tools/which_workloads.py repro.graph.mfg:compact_block \\
        repro.sample.neighbor:NeighborSampler.compact --workload train_sampled_sage_w1
    python3 tools/which_workloads.py repro.graph.mfg:compact_block \\
        --workload train_sar_gat_w2 --fail-if-called

Each ``module:function`` (``module:Class.method`` for a method) is replaced by
a counting wrapper in every ``repro`` module and class that holds it, so
callers that imported the name count too.  The wrappers go in before the
workload's ``setup()``; forked worker processes inherit them and count into
shared memory.  Counts are zeroed after ``setup()``, so each row is one
``run_op(0)`` (seed 0) of a ``BENCHMARK.json`` workload.  ``--fail-if-called``
exits 1 when a count is not 0.  ``benchmarks/e2e/workloads.py`` is imported,
never edited.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]


def counting(original, counts, slot: int):
    @functools.wraps(original)
    def counted(*args, **kwargs):
        with counts.get_lock():
            counts[slot] += 1
        return original(*args, **kwargs)
    return counted


def install(functions, counts) -> None:
    """Swap each named function for its counter wherever a repro module or its class holds it."""
    for slot, name in enumerate(functions):
        module, _, path = name.partition(":")
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = counting(original, counts, slot)
        holders = [owner] + [m for key, m in sys.modules.items() if key.split(".")[0] == "repro"]
        for holder in holders:
            for key in [k for k, v in vars(holder).items() if v is original]:
                setattr(holder, key, wrapped)


def workload_names() -> list:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def main(argv=None) -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("functions", nargs="+", metavar="module:function")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--fail-if-called", action="store_true",
                        help="exit 1 when a function is called during an op")
    args = parser.parse_args(argv)

    import workloads

    counts = multiprocessing.Array("q", len(args.functions))
    install(args.functions, counts)
    status = 0
    for name in args.workload or names:
        workload = workloads.WORKLOADS[name](0, 1)
        try:
            workload.setup()
            counts[:] = [0] * len(args.functions)
            workload.run_op(0)
            calls = list(counts)
        finally:
            workload.teardown()
        for function, count in zip(args.functions, calls):
            print(f"{name:<24} {function:<48} {count:>6} calls", flush=True)
            status |= args.fail_if_called and count > 0
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
