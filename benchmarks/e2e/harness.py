"""Measurement machinery of the end-to-end benchmark; imports nothing from ``repro``.

Three pieces, all owned by the benchmark:

* :func:`pin_threads` and :class:`Calibrator` — noise control.  The BLAS pools
  are pinned to one thread before numpy is imported so runnable threads never
  exceed the 2 vCPUs of the sandbox, and a fixed calibration kernel (a random
  gather over a 32 MB array plus a pure-Python loop) is timed between ops.
  Every reported time is divided by ``kernel_ms / CALIB_REF_MS`` taken from
  the samples around it, i.e. it is a time on a reference machine on which
  the kernel takes exactly ``CALIB_REF_MS``.  Host-wide slow-downs (the shared
  VM drifts by tens of percent over minutes) largely cancel; a change to the
  program does not, because the kernel shares no code with it.
* :func:`percentile`, :func:`summarise` — order statistics over op samples.
* :class:`SpanRecorder` — the in-memory span recorder of the traced run.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: wall time of the calibration kernel on the reference machine.  Frozen: every
#: committed number is expressed against it, so changing it rescales them all.
CALIB_REF_MS = 10.0
#: half-width of the window of calibration samples that normalises one op
CALIB_WINDOW_S = 3.0
#: fewest samples a window may hold before it widens to its nearest neighbours
CALIB_MIN_SAMPLES = 7

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process.  Call before importing numpy."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def pin_malloc_arena(argv: Sequence[str]) -> None:
    """Re-execute once with ``MALLOC_ARENA_MAX=1`` (glibc reads it at start-up).

    With per-thread arenas the peak RSS of the threaded workloads depends on
    which arena each short-lived worker thread happens to get: 221–257 MB on
    identical runs of ``train_sar_gat_w2``, against 178 ± 1 MB with one arena,
    at the same op time.  Forked shard processes inherit the setting.
    """
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        os.environ["MALLOC_ARENA_MAX"] = "1"
        os.execv(sys.executable, [sys.executable, *argv])


# --------------------------------------------------------------------------- #
# machine normalisation
# --------------------------------------------------------------------------- #
class Calibrator:
    """Times a fixed kernel between ops and turns raw times into reference times."""

    GATHER_ELEMENTS = 8 << 20  # float32 -> 32 MB, eight times the L2 of the sandbox's vCPUs
    GATHER_INDICES = 400_000
    LOOP_ITERATIONS = 60_000

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._table = rng.random(self.GATHER_ELEMENTS, dtype=np.float32)
        self._index = rng.integers(0, self.GATHER_ELEMENTS, self.GATHER_INDICES)
        self.times: List[float] = []  # mid-points, perf_counter seconds
        self.values: List[float] = []  # kernel wall time, ms
        self.sample()  # page the table in; the first touch is not a measurement
        self.times.clear()
        self.values.clear()

    def sample(self) -> None:
        # An untimed pass first, so the timed gather starts from "these lines
        # were just touched" and not from whatever the op before left in the
        # caches.  That halves the state dependence; `after` deals with the rest.
        self._table[self._index].sum()
        start = time.perf_counter()
        total = float(self._table[self._index].sum())
        acc = 0
        for i in range(self.LOOP_ITERATIONS):
            acc += i & 7
        end = time.perf_counter()
        if total < 0 or acc < 0:  # keeps both results live
            raise AssertionError("calibration kernel produced a negative sum")
        self.times.append(0.5 * (start + end))
        self.values.append((end - start) * 1e3)

    def after(self, op_seconds: float) -> None:
        """The one sampling rule, applied after every op and every set-up.

        Three samples after a long op (training ops and set-ups last ~0.5 s or
        more, so each is followed by its own samples), otherwise one sample per
        150 ms (serving bursts last milliseconds) — 5–10 % of the run either
        way.  Samples are never taken back to back for longer than that: the
        gather reads faster with every immediate repetition (the table settles
        into the caches), so a long series would read a faster machine than the
        samples that follow ops do.
        """
        if op_seconds >= 0.25:
            for _ in range(3):
                self.sample()
        elif not self.times or time.perf_counter() - self.times[-1] >= 0.15:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``machine_factor`` for the interval: median kernel time / reference."""
        return local_factor(self.times, self.values, start, end)

    def overall_factor(self) -> float:
        return statistics.median(self.values) / CALIB_REF_MS

    def cv(self) -> float:
        mean = statistics.fmean(self.values)
        return statistics.pstdev(self.values) / mean if mean else 0.0


def local_factor(times: Sequence[float], values: Sequence[float],
                 start: float, end: float) -> float:
    """Median of the kernel samples within ``CALIB_WINDOW_S`` of ``[start, end]``.

    ``times`` is ascending.  A window holding fewer than ``CALIB_MIN_SAMPLES``
    samples is widened to the nearest ones on either side.
    """
    if not values:
        raise ValueError("no calibration samples")
    lo = bisect.bisect_left(times, start - CALIB_WINDOW_S)
    hi = bisect.bisect_right(times, end + CALIB_WINDOW_S)
    if hi - lo < CALIB_MIN_SAMPLES:
        centre = bisect.bisect_left(times, 0.5 * (start + end))
        lo = max(0, min(lo, centre - CALIB_MIN_SAMPLES // 2 - 1))
        hi = min(len(values), max(hi, centre + CALIB_MIN_SAMPLES // 2 + 1))
    return statistics.median(values[lo:hi]) / CALIB_REF_MS


def normalise(intervals: Sequence[Tuple[float, float]], times: Sequence[float],
              values: Sequence[float]) -> List[float]:
    """Reference-machine milliseconds of each ``(start, end)`` interval."""
    return [
        (end - start) * 1e3 / local_factor(times, values, start, end)
        for start, end in intervals
    ]


# --------------------------------------------------------------------------- #
# order statistics
# --------------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> int:
    """The highest of p95/p99 that leaves at least ten samples beyond it."""
    return 99 if count >= 1000 else 95


def summarise(op_ms: Sequence[float]) -> Dict[str, float]:
    """Median, mean-based rate and the supported tail of one op sample."""
    tail = tail_percentile(len(op_ms))
    return {
        "p50_ms": percentile(op_ms, 50),
        "tail_ms": percentile(op_ms, tail),
        "tail_q": tail,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "samples": len(op_ms),
    }


def timed_setups(workload, calibrator: "Calibrator", repeats: int) -> List[Tuple[float, float]]:
    """Build -> warm-up ``repeats`` times; keeps the last instance running.

    Returns the ``(start, end)`` interval of each set-up.  Tear-down of the
    discarded instances is not part of the interval.
    """
    intervals = []
    for index in range(repeats):
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        intervals.append((start, end))
        calibrator.after(end - start)
        if index + 1 < repeats:
            workload.teardown()
    return intervals


def measure(workload, calibrator: "Calibrator", first: int, count: int):
    """The closed loop over ops ``first .. first + count``: op, check, calibrate.

    Returns the op intervals and how many ops failed.  An op fails when it
    raises (a timeout included) or when its result does not verify; the check
    runs outside the op's timed interval.
    """
    intervals, failed = [], 0
    for index in range(first, first + count):
        start = time.perf_counter()
        try:
            result = workload.run_op(index)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op, not a crash
            print(f"op {index} raised {exc!r}", file=sys.stderr)
            result = None
        end = time.perf_counter()
        intervals.append((start, end))
        calibrator.after(end - start)
        if result is None or not workload.verify(index, result):
            failed += 1
        workload.after_op(index)
    return intervals, failed


def peak_rss_mb() -> Tuple[float, float]:
    """``ru_maxrss`` of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class SpanRecorder:
    """In-memory spans: name, start, end, parent, op id; written out at exit.

    The parent is the innermost open span *of the same thread*, so the two
    worker threads of the distributed replica build separate trees.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.op: Optional[int] = None
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "parent": stack[-1] if stack else None,
                  "op": self.op, "tid": threading.get_ident(), "args": args,
                  "start": time.perf_counter(), "end": None}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations_ms(self, name: str, **match) -> List[float]:
        return [
            (s["end"] - s["start"]) * 1e3 for s in self.spans
            if s["name"] == name and s["end"] is not None
            and all(s["args"].get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> Dict[str, dict]:
        """Per span name: calls, total ms, and self ms (total minus children)."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_ms[span["parent"]] += (span["end"] - span["start"]) * 1e3
        table: Dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None:
                continue
            total = (span["end"] - span["start"]) * 1e3
            row = table.setdefault(span["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += total
            row["self_ms"] += max(total - child_ms[index], 0.0)
        return table

    def chrome_trace(self) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto JSON (complete events, µs)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {"name": s["name"], "ph": "X", "pid": 0, "tid": s["tid"],
             "ts": (s["start"] - origin) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
             "args": {**s["args"], "op": s["op"], "parent": s["parent"]}}
            for s in self.spans if s["end"] is not None
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, trace_path: str, table_path: str) -> None:
        with open(trace_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1]["self_ms"])
        with open(table_path, "w") as handle:
            handle.write(f"{'span':<28}{'calls':>8}{'total_ms':>14}{'self_ms':>14}\n")
            for name, row in rows:
                handle.write(f"{name:<28}{row['calls']:>8}{row['total_ms']:>14.3f}"
                             f"{row['self_ms']:>14.3f}\n")
