"""The serving frontend on its own: a ``Server`` over a fake in-memory executor.

No graph, no model: the executor answers seed ``i`` with the row
``[i, weights_version]``, records every batch it is handed, and can be held
inside ``compute`` so the test decides what is queued behind a running batch.
That pins the frontend's own semantics — coalescing window, dedup/scatter,
updates as barriers, backpressure, and the stop path — independently of any
executor.
"""

from __future__ import annotations

import sys
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
    # each result is its own array, not a view pinning the batch's rows
    assert all(row.flags.owndata for row in rows)
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


def test_an_update_closes_an_open_batch_at_once():
    # The batch of [1] sleeps for more seeds until its 5 s timer; an update
    # queued behind it wakes the serve thread, which runs the batch on the
    # old weights at once and then applies the update.
    executor = FakeExecutor()
    server = Server(executor, ServingConfig(window_ms=5000.0)).start()
    start = time.monotonic()
    first = server.predict_async([1])
    while server.stats()["queue_depth"]:  # the serve thread holds [1] in its open batch
        time.sleep(0.001)
    assert server.update() == 2
    assert first.result(10)[0].tolist() == [1, 0]
    assert time.monotonic() - start < 2.0
    assert executor.batches == [[1]]
    server.stop()


def test_one_id_requests_behind_a_parked_batch_run_as_one_batch_closed_by_size():
    # max_batch_seeds one-id requests: the first seven queue behind the parked
    # batch and stay in the open batch once it is released; the eighth closes
    # it by size, long before the 5 s timer.
    server, executor, plug = _held_server(window_ms=5000.0, max_batch_seeds=8)
    ids = [17, 3, 42, 3, 8, 99, 1, 56]
    futures = [server.predict_async([node]) for node in ids[:-1]]
    executor.gate.set()
    plug.result(10)
    time.sleep(0.1)
    assert executor.batches == [[0]]  # the open batch has not reached the executor
    assert not any(future.done() for future in futures)
    start = time.monotonic()
    futures.append(server.predict_async([ids[-1]]))
    rows = [future.result(10) for future in futures]
    assert time.monotonic() - start < 2.0
    assert executor.batches == [[0], sorted(set(ids))]
    assert [row[0, 0] for row in rows] == ids
    stats = server.stats()
    assert stats["batches"] == 2 and stats["max_requests_in_batch"] == 8
    server.stop()


def test_a_burst_notifies_the_serve_thread_twice_not_per_request():
    # The first request wakes the idle serve thread; the next six neither
    # close the open batch nor fill the inbox, so only the eighth, which
    # reaches max_batch_seeds, notifies it again.
    class CountingCondition(threading.Condition):
        notified = 0

        def notify(self, n=1):
            self.notified += 1
            super().notify(n)

    executor = FakeExecutor()
    server = Server(executor, ServingConfig(window_ms=5000.0, max_batch_seeds=8))
    ready = server._inbox._ready = CountingCondition(server._inbox._lock)
    server.start()
    futures = [server.predict_async([node]) for node in range(8)]
    assert not wait(futures, timeout=10.0).not_done
    assert ready.notified == 2 and executor.batches == [list(range(8))]
    server.stop()


def test_a_full_inbox_does_not_split_an_open_batch():
    # Two slots, eight seeds per batch: the open batch keeps taking requests
    # as the inbox fills, so the batch boundary is the seed limit, not the bound.
    executor = FakeExecutor()
    server = Server(executor, ServingConfig(window_ms=5000.0, max_batch_seeds=8,
                                            max_pending=2)).start()
    start = time.monotonic()
    futures = [server.predict_async([node], timeout=5.0) for node in range(8)]
    assert [future.result(10)[0, 0] for future in futures] == list(range(8))
    assert time.monotonic() - start < 2.0
    assert executor.batches == [list(range(8))]
    server.stop()


def test_requests_count_equals_accepted_futures_under_concurrent_submitters():
    # Eight submitters on a short switch interval, against a bound that makes
    # them wait for room: a lost update of the admission count would show.
    server = Server(FakeExecutor(), ServingConfig(window_ms=1.0, max_batch_seeds=16,
                                                  max_pending=8)).start()
    accepted = [[] for _ in range(8)]

    def submit(rank):
        for i in range(150):
            accepted[rank].append(server.predict_async([(rank * 7 + i) % 100], timeout=10.0))

    threads = [threading.Thread(target=submit, args=(rank,)) for rank in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    futures = [future for mine in accepted for future in mine]
    assert not wait(futures, timeout=10.0).not_done
    server.stop()
    stats = server.stats()
    assert stats["requests"] == len(futures) == 8 * 150
    assert stats["served_requests"] == len(futures) and stats["queue_depth"] == 0


def test_full_queue_raises_the_same_error_from_predict_and_update():
    # Both wait for room at once, time out, and leave the queued request alone.
    server, executor, plug = _held_server(window_ms=0.0, max_pending=1)
    queued = server.predict_async([1])  # fills the one-slot queue
    errors = []

    def blocked_update():
        try:
            server.update(timeout=0.2)
        except RuntimeError as exc:
            errors.append(exc)

    update = threading.Thread(target=blocked_update)
    start = time.monotonic()
    update.start()
    with pytest.raises(RuntimeError, match=r"request queue full \(1 pending\)"):
        server.predict_async([2], timeout=0.2)
    update.join(10)
    assert not update.is_alive() and time.monotonic() - start >= 0.2
    assert len(errors) == 1
    assert str(errors[0]) == "request queue full (1 pending)"
    executor.gate.set()
    assert queued.result(10)[0].tolist() == [1, 0]
    assert server.update() == 2  # the timed-out update left nothing behind
    assert executor.batches == [[0], [1]] and server.stats()["requests"] == 2
    server.stop()


def test_stop_racing_submitters_leaves_no_future_pending(monkeypatch):
    """Requests enqueued behind the stop sentinel are failed, not left to time out."""
    server = Server(FakeExecutor(), ServingConfig(window_ms=0.0)).start()
    put = server._inbox.put

    def slow_put(item, *args, **kwargs):
        # Widen the window between a submitter's running check and its
        # enqueue, so some requests land after stop() queued its sentinel.
        if hasattr(item, "ids"):
            time.sleep(0.002)
        return put(item, *args, **kwargs)

    monkeypatch.setattr(server._inbox, "put", slow_put)
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
