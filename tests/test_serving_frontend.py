"""The serving frontend on its own: a ``Server`` over a fake in-memory executor.

No graph, no model: the executor answers seed ``i`` with the row
``[i, weights_version]``, records every batch it is handed, and can be held
inside ``compute`` so the test decides what is queued behind a running batch.
That pins the frontend's own semantics — coalescing window, dedup/scatter,
updates as barriers, backpressure, and the stop path — independently of any
executor.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.serving import Server, ServingConfig


class FakeExecutor:
    num_nodes = 100
    num_layers = 2
    output_dtype = np.dtype(np.float32)
    store_version = 0

    def __init__(self):
        self.weights_version = 0
        self.batches = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()
        self.running = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def compute(self, seeds):
        self.entered.set()
        assert self.gate.wait(10), "test never released the executor"
        self.batches.append(seeds.tolist())
        rows = np.stack([seeds, np.full_like(seeds, self.weights_version)], axis=1)
        return rows.astype(np.float32), 0

    def apply_update(self, apply_fn):
        if apply_fn is not None:
            apply_fn(self)
        self.weights_version += 1

    def stats(self):
        return {"workers": None}


def _held_server(**config):
    """A started server whose serve thread is parked inside a first batch."""
    executor = FakeExecutor()
    server = Server(executor, ServingConfig(**config)).start()
    executor.gate.clear()
    # a full batch on its own: the window closes by size, not by its timer
    plug = server.predict_async([0] * server.max_batch_seeds)
    assert executor.entered.wait(10)
    return server, executor, plug


def test_window_dedups_one_batch_and_scatters_rows_in_request_order():
    # 5 requested seeds == max_batch_seeds: the window closes by size, long
    # before its 5 s timer.
    server, executor, plug = _held_server(window_ms=5000.0, max_batch_seeds=5)
    first = server.predict_async([5, 3, 5])
    second = server.predict_async([3, 9])
    start = time.monotonic()
    executor.gate.set()
    rows = [future.result(10) for future in (plug, first, second)]
    assert time.monotonic() - start < 2.0
    server.stop()
    assert executor.batches == [[0], [3, 5, 9]]  # deduplicated, ascending
    assert rows[1][:, 0].tolist() == [5, 3, 5]  # request order, duplicates kept
    assert rows[2][:, 0].tolist() == [3, 9]
    stats = server.stats()
    assert stats["batches"] == 2 and stats["served_requests"] == 3
    assert stats["seeds_executed"] == 4 and stats["max_requests_in_batch"] == 2
    assert stats["frontier_layers"] == {0: 2} and stats["fast_path_batches"] == 0
    assert not executor.running


def test_update_is_a_barrier_between_batches():
    server, executor, plug = _held_server(window_ms=200.0)
    before = server.predict_async([1])
    seen = []
    update = threading.Thread(target=lambda: seen.append(server.update(lambda ex: None)))
    update.start()
    while server.stats()["queue_depth"] < 2:  # the update is queued behind `before`
        time.sleep(0.001)
    after = server.predict_async([2])
    executor.gate.set()
    update.join(10)
    # The window would have merged [1] and [2]; the update between them closes
    # the batch, runs it on the old weights, and only then applies.
    assert before.result(10)[0].tolist() == [1, 0]
    assert after.result(10)[0].tolist() == [2, 1]
    assert executor.batches == [[0], [1], [2]]
    assert seen == [2] and server.version == 2 and server.stats()["updates"] == 1
    assert server.update() == 3  # no function: a pure version bump
    server.stop()


def test_full_queue_raises_the_same_error_from_predict_and_update():
    server, executor, plug = _held_server(window_ms=0.0, max_pending=1)
    queued = server.predict_async([1])  # fills the one-slot queue
    with pytest.raises(RuntimeError, match=r"request queue full \(1 pending\)"):
        server.predict_async([2], timeout=0.05)
    with pytest.raises(RuntimeError, match=r"request queue full \(1 pending\)"):
        server.update(timeout=0.05)
    executor.gate.set()
    assert queued.result(10)[0].tolist() == [1, 0]
    server.stop()


def test_stop_racing_submitters_leaves_no_future_pending(monkeypatch):
    """Requests enqueued behind the stop sentinel are failed, not left to time out."""
    server = Server(FakeExecutor(), ServingConfig(window_ms=0.0)).start()
    put = server._queue.put

    def slow_put(item, *args, **kwargs):
        # Widen the window between a submitter's running check and its
        # enqueue, so some requests land after stop() queued its sentinel.
        if hasattr(item, "ids"):
            time.sleep(0.002)
        put(item, *args, **kwargs)

    monkeypatch.setattr(server._queue, "put", slow_put)
    futures, lock = [], threading.Lock()

    def submit(node):
        try:
            while True:
                future = server.predict_async([node])
                with lock:
                    futures.append(future)
        except RuntimeError as exc:
            assert "not running" in str(exc)

    threads = [threading.Thread(target=submit, args=(node,)) for node in range(8)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    server.stop()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert len(futures) > 8
    assert not wait(futures, timeout=2.0).not_done
    served = [f for f in futures if f.exception() is None]
    for future in futures:
        if future.exception() is not None:
            assert isinstance(future.exception(), RuntimeError)
            assert "not running" in str(future.exception())
    assert served and server.stats()["served_requests"] == len(served)
