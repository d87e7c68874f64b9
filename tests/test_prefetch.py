"""Tests for the ordered, bounded prefetch helper.

Contract (see :mod:`repro.utils.prefetch`): results arrive strictly in input
order, at most ``max_resident`` items are ever materialized (the consumer's
included), the inline mode starts no thread, an error reaches the consumer
on its own item, and an abandoned run never waits on a running item.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.utils.prefetch import THREAD_PREFIX, Prefetcher


def _prefetch_threads(name):
    return [t for t in threading.enumerate() if t.name.startswith(f"{THREAD_PREFIX}-{name}")]


class TestPrefetcher:
    def test_out_of_order_completion_is_reordered(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.05)
            return x * 10

        prefetcher = Prefetcher(max_resident=4, num_workers=3)
        assert list(prefetcher.run(slow_first, range(8))) == [i * 10 for i in range(8)]

    @pytest.mark.parametrize("max_resident", [1, 2, 4])
    def test_residency_bound_held(self, max_resident):
        # An item is materialized from the moment fn starts on it until the
        # consumer asks for the next item after it.
        live = set()
        lock = threading.Lock()
        peak = [0]

        def make(x):
            with lock:
                live.add(x)
                peak[0] = max(peak[0], len(live))
            time.sleep(0.002)
            return x

        prefetcher = Prefetcher(max_resident=max_resident, num_workers=2)
        seen = []
        for x in prefetcher.run(make, range(12)):
            seen.append(x)
            time.sleep(0.002)
            with lock:
                live.discard(x)
        assert seen == list(range(12))
        assert peak[0] <= max_resident
        assert 1 <= prefetcher.peak_resident <= max_resident

    @pytest.mark.parametrize("max_resident, num_workers", [(2, 0), (1, 3)])
    def test_inline_mode_starts_no_thread(self, max_resident, num_workers):
        threads = set()
        before = threading.active_count()

        def record(x):
            threads.add(threading.current_thread())
            assert threading.active_count() == before
            return x + 1

        prefetcher = Prefetcher(max_resident=max_resident, num_workers=num_workers)
        assert list(prefetcher.run(record, range(5))) == [i + 1 for i in range(5)]
        assert threads == {threading.current_thread()}
        assert prefetcher.peak_resident == 1

    def test_error_arrives_on_its_own_item(self):
        def explode(x):
            if x == 2:
                raise RuntimeError("item exploded")
            return x

        results = []
        with pytest.raises(RuntimeError, match="item exploded"):
            for value in Prefetcher(max_resident=3, num_workers=2).run(explode, range(6)):
                results.append(value)
        assert results == [0, 1]

    def test_exhaustion_joins_worker_threads(self):
        assert list(Prefetcher(max_resident=3, num_workers=2, name="joined").run(
            lambda x: x, range(5))) == list(range(5))
        assert _prefetch_threads("joined") == []

    def test_abandoned_run_does_not_wait_on_a_running_item(self):
        release = threading.Event()
        started = []

        def job(x):
            started.append(x)
            if x == 1:
                release.wait(10.0)
            return x

        # One worker: item 1 runs (blocked on the event), item 2 is queued.
        run = Prefetcher(max_resident=3, num_workers=1, name="abandoned").run(job, range(10))
        assert next(run) == 0
        deadline = time.monotonic() + 5.0
        while 1 not in started and time.monotonic() < deadline:
            time.sleep(0.001)
        tic = time.monotonic()
        run.close()
        assert time.monotonic() - tic < 1.0
        threads = _prefetch_threads("abandoned")
        assert threads and all(t.is_alive() for t in threads)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert started == [0, 1]  # the queued item never ran

    def test_validation(self):
        with pytest.raises(ValueError, match="max_resident"):
            Prefetcher(max_resident=0)
        with pytest.raises(ValueError, match="num_workers"):
            Prefetcher(num_workers=-1)
