"""Checks of the benchmark itself.  Run with ``pytest benchmarks/e2e -q``.

Not collected by the tier-1 run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# percentile and normalisation maths
# --------------------------------------------------------------------------- #
def test_percentile_interpolates():
    assert harness.percentile([1, 2, 3, 4], 50) == 2.5
    assert harness.percentile([5], 99) == 5
    assert harness.percentile(range(101), 95) == 95
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(1000) == 99


def test_summarise_rate_is_mean_based():
    stats = harness.summarise([10.0, 10.0, 40.0])
    assert stats["p50_ms"] == 10.0
    assert stats["ops_per_s"] == pytest.approx(3 / 0.060)


def test_normalisation_recovers_a_mid_run_slowdown():
    # 60 s of 100 ms ops; from t = 30 s the machine is 1.3x slower, which the
    # kernel (10 ms at reference speed, sampled every 0.1 s) sees as well.
    times, values, intervals = [], [], []
    for step in range(600):
        now = step * 0.1
        slow = 1.3 if now >= 30.0 else 1.0
        times.append(now)
        values.append(harness.CALIB_REF_MS * slow)
        intervals.append((now + 0.001, now + 0.001 + 0.100 * slow))
    op_ms = harness.normalise(intervals, times, values)
    raw_ms = [(end - start) * 1e3 for start, end in intervals]
    assert max(raw_ms) / min(raw_ms) == pytest.approx(1.3)
    assert harness.percentile(op_ms, 50) == pytest.approx(100.0, rel=0.02)
    inside = [ms for (start, _), ms in zip(intervals, op_ms) if abs(start - 30.0) > 4.0]
    assert max(inside) / min(inside) < 1.02


def test_local_factor_widens_a_sparse_window():
    times = [0.0, 100.0, 200.0]
    assert harness.local_factor(times, [10.0, 20.0, 30.0], 99.0, 101.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.local_factor([], [], 0.0, 1.0)


def test_span_recorder_self_time_and_chrome_trace():
    recorder = harness.SpanRecorder()
    recorder.op = 7
    with recorder.span("outer", rank=0):
        time.sleep(0.002)
        with recorder.span("inner"):
            time.sleep(0.002)
    outer, inner = recorder.spans
    assert inner["parent"] == 0 and outer["parent"] is None and inner["op"] == 7
    table = recorder.self_times()
    assert table["outer"]["self_ms"] == pytest.approx(
        table["outer"]["total_ms"] - table["inner"]["total_ms"])
    events = recorder.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"] and all(e["ph"] == "X" for e in events)
    assert recorder.durations_ms("outer", rank=1) == []


# --------------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert all(not part.startswith("/") and ".." not in part for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # 4 + 22 x workloads runs of run_seconds + ~8 s of set-up and checks must fit 3420 s
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 8) <= 3420


def test_benchmark_json_matches_the_code(spec):
    pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, entry["unit"], entry["better"]) for name, entry in layers.PER_LAYER.items()]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layers.PER_LAYER.items():
        # every per-layer metric names the end-to-end metric and workloads it should move
        assert entry["moves"] in end_to_end, name
        assert entry["on"] and set(entry["on"]) <= set(workloads.WORKLOADS), name


# --------------------------------------------------------------------------- #
# the whole thing, small
# --------------------------------------------------------------------------- #
def test_smoke_runs_every_workload_untraced_and_traced(spec):
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(spec["workloads"])
    for untraced, traced in zip(results[0::2], results[1::2]):
        # failed counts split bursts too: batches == bursts on the serving workloads
        assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
        assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        assert traced["correct"] and traced["failed"] == 0
        assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
        assert traced["metrics"]["harness.fail_ratio"]["value"] == 0
    assert (HERE / "out" / "trace_serve_hot_local.json").exists()
    assert time.perf_counter() - start < 120  # ~30 s on a quiet 2-vCPU sandbox


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / "e2e" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_hot_local", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
