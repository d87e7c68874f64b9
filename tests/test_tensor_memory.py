"""Tests for the per-worker memory tracker."""

import threading

import numpy as np

from repro.tensor import MemoryTracker, Tensor, track_memory, active_tracker, no_tracking


class TestMemoryTracker:
    def test_allocation_and_release(self):
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            t = Tensor(np.zeros((1000, 10), dtype=np.float32))
            assert tracker.current_bytes == t.nbytes
            peak = tracker.peak_bytes
            del t
        assert tracker.current_bytes == 0
        assert tracker.peak_bytes == peak > 0

    def test_views_not_double_counted(self):
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            base = Tensor(np.zeros((100, 10), dtype=np.float32))
            view = base.reshape(10, 100)
            assert tracker.current_bytes == base.nbytes
            del view, base
        assert tracker.current_bytes == 0

    def test_peak_tracks_high_water_mark(self):
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            a = Tensor(np.zeros(1000, dtype=np.float32))
            b = Tensor(np.zeros(2000, dtype=np.float32))
            del a, b
            _ = Tensor(np.zeros(10, dtype=np.float32))
        assert tracker.peak_bytes == 3000 * 4

    def test_reset_peak(self):
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            a = Tensor(np.zeros(1000, dtype=np.float32))
            del a
            tracker.reset_peak()
            assert tracker.peak_bytes == 0

    def test_nested_trackers_inner_wins(self):
        outer, inner = MemoryTracker("outer"), MemoryTracker("inner")
        with track_memory(outer):
            with track_memory(inner):
                _ = Tensor(np.zeros(100, dtype=np.float32))
            assert inner.total_allocated_bytes == 400
            assert outer.total_allocated_bytes == 0

    def test_no_tracking_context(self):
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            with no_tracking():
                _ = Tensor(np.zeros(100, dtype=np.float32))
        assert tracker.total_allocated_bytes == 0

    def test_no_active_tracker_is_fine(self):
        assert active_tracker() is None
        t = Tensor(np.zeros(10, dtype=np.float32))
        assert t._tracker is None

    def test_thread_local_isolation(self):
        main_tracker = MemoryTracker("main")
        other_result = {}

        def other_thread():
            other_tracker = MemoryTracker("other")
            with track_memory(other_tracker):
                _ = Tensor(np.zeros(500, dtype=np.float32))
            other_result["bytes"] = other_tracker.total_allocated_bytes

        with track_memory(main_tracker):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
            _ = Tensor(np.zeros(100, dtype=np.float32))
        assert other_result["bytes"] == 2000
        assert main_tracker.total_allocated_bytes == 400

    def test_snapshot_and_mb_properties(self):
        tracker = MemoryTracker("snap")
        with track_memory(tracker):
            keep = Tensor(np.zeros((1024, 256), dtype=np.float32))
            snap = tracker.snapshot()
            assert snap["label"] == "snap"
            assert snap["peak_bytes"] == keep.nbytes
            assert np.isclose(tracker.peak_mb, keep.nbytes / 2**20)
            assert np.isclose(tracker.current_mb, tracker.peak_mb)
            del keep

    def test_saved_activations_counted_until_backward(self):
        """The end-of-forward peak should include intermediate activations."""
        tracker = MemoryTracker("t")
        with track_memory(tracker):
            x = Tensor(np.random.randn(200, 50).astype(np.float32), requires_grad=True)
            w = Tensor(np.random.randn(50, 50).astype(np.float32), requires_grad=True)
            h = x @ w
            loss = (h * h).sum()
            peak_forward = tracker.current_bytes
            loss.backward()
            del h, loss
            after = tracker.current_bytes
        assert peak_forward > x.nbytes + w.nbytes
        assert after < peak_forward

    def test_shared_tracker_counts_each_buffer_once_under_threads(self):
        """A worker's tracker is shared with its halo prefetch thread: holders
        acquired and let go concurrently must leave the count exact."""
        import sys

        tracker = MemoryTracker("shared")
        buffers = [np.zeros(256, dtype=np.float32) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def hold_and_drop():
                for _ in range(200):
                    keys = [tracker.acquire(b[i:]) for i, b in enumerate(buffers)]
                    keys += [tracker.acquire(b) for b in buffers]
                    for key in keys:
                        if key is not None:
                            tracker.let_go(key)

            with track_memory(tracker):
                owners = [Tensor(b) for b in buffers]
            threads = [threading.Thread(target=hold_and_drop) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert tracker.current_bytes == tracker.peak_bytes == 4 * 1024
            del owners
            assert tracker.current_bytes == 0
        finally:
            sys.setswitchinterval(interval)
