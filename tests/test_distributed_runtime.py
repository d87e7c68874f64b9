"""Tests for the simulated cluster runtime: communicator, collectives, cost model."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    ClusterSpec,
    epoch_cost,
    run_distributed,
)
from repro.distributed.comm import CommStats
from repro.distributed.thread_backend import ClusterAborted, ThreadServiceCluster
from repro.tensor import Tensor
from repro.tensor.memory import MemoryTracker


class TestPointToPoint:
    def test_publish_fetch_roundtrip(self):
        def worker(rank, comm):
            comm.publish("vec", np.full(4, rank, dtype=np.float32))
            neighbor = (rank + 1) % comm.world_size
            fetched = comm.fetch(neighbor, "vec")
            comm.barrier()
            return float(fetched[0])

        result = run_distributed(worker, 4)
        assert result.results == [1.0, 2.0, 3.0, 0.0]

    def test_fetch_row_subset(self):
        def worker(rank, comm):
            comm.publish("mat", np.arange(12, dtype=np.float32).reshape(6, 2) + rank)
            rows = np.array([1, 4])
            fetched = comm.fetch((rank + 1) % 2, "mat", rows=rows)
            comm.barrier()
            return fetched.copy()

        result = run_distributed(worker, 2)
        np.testing.assert_allclose(result.results[0][:, 0], [2 + 1, 8 + 1])

    def test_fetch_is_a_copy(self):
        def worker(rank, comm):
            data = np.zeros(3, dtype=np.float32)
            comm.publish("x", data)
            comm.barrier()
            fetched = comm.fetch((rank + 1) % 2, "x")
            fetched += 100.0
            comm.barrier()
            return float(data.sum())

        result = run_distributed(worker, 2)
        assert result.results == [0.0, 0.0]

    def test_self_fetch_not_counted_as_communication(self):
        def worker(rank, comm):
            comm.publish("x", np.ones(10, dtype=np.float32))
            comm.fetch(rank, "x")
            return comm.stats.bytes_received

        result = run_distributed(worker, 2)
        assert result.results == [0, 0]

    def test_communication_volume_accounting(self):
        payload_bytes = 40  # 10 float32

        def worker(rank, comm):
            comm.publish("x", np.ones(10, dtype=np.float32))
            comm.fetch((rank + 1) % 2, "x", tag="halo")
            comm.barrier()
            return None

        result = run_distributed(worker, 2)
        for stats in result.comm_stats:
            assert stats.bytes_received == payload_bytes
            assert stats.bytes_sent == payload_bytes
            assert stats.received_by_tag["halo"] == payload_bytes
            assert stats.sent_by_tag["halo"] == payload_bytes
            assert stats.bytes_for_tags(["halo"]) == (payload_bytes, payload_bytes)

    def test_unpublish_and_clear(self):
        def worker(rank, comm):
            comm.publish("a", np.ones(2))
            comm.publish("b", np.ones(2))
            comm.unpublish("a")
            comm.clear_published()
            comm.barrier()
            return True

        assert run_distributed(worker, 2).results == [True, True]


class TestCollectives:
    def test_allreduce_sum_and_max(self):
        def worker(rank, comm):
            total = comm.allreduce(np.array([rank + 1.0]), op="sum")
            biggest = comm.allreduce(np.array([float(rank)]), op="max")
            return float(total[0]), float(biggest[0])

        result = run_distributed(worker, 4)
        assert all(r == (10.0, 3.0) for r in result.results)

    def test_allreduce_mean(self):
        def worker(rank, comm):
            return float(comm.allreduce(np.array([float(rank)]), op="mean")[0])

        assert run_distributed(worker, 4).results == [1.5] * 4

    def test_allreduce_scalar(self):
        def worker(rank, comm):
            return comm.allreduce_scalar(1.0)

        assert run_distributed(worker, 3).results == [3.0] * 3

    def test_allgather(self):
        def worker(rank, comm):
            gathered = comm.allgather(np.array([rank], dtype=np.int64))
            return [int(g[0]) for g in gathered]

        result = run_distributed(worker, 3)
        assert all(r == [0, 1, 2] for r in result.results)

    def test_exchange_all_to_all(self):
        def worker(rank, comm):
            outgoing = {
                q: np.array([rank * 10 + q], dtype=np.float32)
                for q in range(comm.world_size) if q != rank
            }
            received = comm.exchange("round1", outgoing)
            return sorted((sender, float(v[0])) for sender, v in received.items())

        result = run_distributed(worker, 3)
        # worker 0 receives 10·1+0 from rank 1 and 10·2+0 from rank 2
        assert result.results[0] == [(1, 10.0), (2, 20.0)]
        assert result.results[2] == [(0, 2.0), (1, 12.0)]

    def test_exchange_with_partial_destinations(self):
        def worker(rank, comm):
            outgoing = {0: np.array([float(rank)])} if rank != 0 else {}
            received = comm.exchange("partial", outgoing)
            return sorted(received.keys())

        result = run_distributed(worker, 3)
        assert result.results[0] == [1, 2]
        assert result.results[1] == []

    def test_repeated_collectives_stay_consistent(self):
        def worker(rank, comm):
            values = []
            for step in range(5):
                out = comm.allreduce(np.array([float(rank + step)]))
                values.append(float(out[0]))
            return values

        result = run_distributed(worker, 3)
        expected = [sum(r + s for r in range(3)) for s in range(5)]
        assert all(r == expected for r in result.results)


class TestKeyedCollectives:
    """Barrier-free keyed allgather: the primitive the sampling overlap uses."""

    def test_roundtrip_and_tag_accounting(self):
        def worker(rank, comm):
            gathered = comm.allgather_keyed(
                "s/0", np.array([rank], dtype=np.int64), tag="sample_frontier"
            )
            comm.barrier()
            comm.release_keyed("s/0")
            return ([int(g[0]) for g in gathered],
                    comm.stats.received_by_tag.get("sample_frontier", 0))

        result = run_distributed(worker, 3)
        for values, received in result.results:
            assert values == [0, 1, 2]
            assert received == 2 * 8  # one int64 from each of two peers

    def test_stream_keys_survive_clear_published(self):
        from repro.distributed.comm import STREAM_KEY_PREFIX

        def worker(rank, comm):
            comm.publish(STREAM_KEY_PREFIX + "x", np.array([float(rank)], dtype=np.float32))
            comm.publish("ordinary", np.ones(1, dtype=np.float32))
            comm.clear_published()  # begin_step housekeeping: spares stream keys
            comm.barrier()
            fetched = comm.fetch((rank + 1) % 2, STREAM_KEY_PREFIX + "x")
            comm.barrier()
            comm.release_keyed("x")
            return float(fetched[0])

        assert run_distributed(worker, 2).results == [1.0, 0.0]

    def test_keyed_allgathers_concurrent_with_barrier_collectives(self):
        """A background thread streaming keyed allgathers must never perturb
        the main thread's counter-ordered collectives (the property the
        pipelined sampled-training loop stands on)."""
        import threading

        def worker(rank, comm):
            background = {}

            def stream():
                rounds = []
                for step in range(6):
                    gathered = comm.allgather_keyed(
                        f"bg/{step}", np.array([rank * 100 + step], dtype=np.int64),
                        tag="sample_frontier",
                    )
                    rounds.append([int(g[0]) for g in gathered])
                background["rounds"] = rounds

            thread = threading.Thread(target=stream)
            thread.start()
            main = [
                float(comm.allreduce(np.array([float(rank + step)]))[0])
                for step in range(6)
            ]
            thread.join()
            comm.barrier()
            for step in range(6):
                comm.release_keyed(f"bg/{step}")
            return main, background["rounds"]

        result = run_distributed(worker, 2)
        for main, rounds in result.results:
            assert main == [sum(r + step for r in range(2)) for step in range(6)]
            assert rounds == [[step, 100 + step] for step in range(6)]

    def test_sample_frontier_time_hidden_by_overlap_tags(self):
        from repro.distributed.cost_model import SAMPLING_OVERLAP_TAGS

        def worker(rank, comm):
            comm.allgather_keyed("f/0", np.ones(4096, dtype=np.int64),
                                 tag="sample_frontier")
            x = np.random.randn(150, 150)
            for _ in range(8):
                x = x @ x.T
                x /= np.abs(x).max()
            comm.barrier()
            comm.release_keyed("f/0")
            return None

        result = run_distributed(worker, 2)
        spec = ClusterSpec(bandwidth_mbps=1.0, latency_s=0.0)
        serial = epoch_cost(result, spec)
        overlapped = epoch_cost(result, spec, overlap_tags=SAMPLING_OVERLAP_TAGS)
        assert serial.hidden_comm_time_s == 0.0
        assert overlapped.hidden_comm_time_s > 0.0
        assert overlapped.epoch_time_s < serial.epoch_time_s


class TestFailureHandling:
    def test_worker_exception_propagates_without_deadlock(self):
        def worker(rank, comm):
            if rank == 1:
                raise ValueError("boom")
            # Other workers would block here forever without the abort machinery.
            comm.barrier()
            return True

        # The failing rank is named and its own exception (type, traceback)
        # is the cause — not rank 0's follow-on ClusterAborted.
        with pytest.raises(RuntimeError, match=r"Worker 1 failed: ValueError\('boom'\)") as excinfo:
            run_distributed(worker, 3, timeout_s=20)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError) and cause.__traceback__ is not None

    def test_service_request_raises_the_root_cause(self):
        """Rank 1 raises while rank 0 waits for it: the caller gets rank 1's
        exception, whichever future it happens to read first."""
        def factory(rank, comm):
            def handler(kind, payload):
                if rank == 1:
                    raise KeyError("root cause")
                comm.barrier()
            return handler

        cluster = ThreadServiceCluster(factory, 3, timeout_s=20).start()
        try:
            with pytest.raises(KeyError, match="root cause"):
                cluster.request("job")
        finally:
            cluster.stop()

    def test_rank_that_never_returns_raises_at_the_timeout(self):
        """A rank stuck outside any collective cannot hang the caller."""
        release = threading.Event()

        def worker(rank, comm):
            if rank == 1:
                release.wait(60)
            return rank

        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError, match=r"timed out after 1s waiting for ranks \[1\]"):
                run_distributed(worker, 2, timeout_s=1)
            assert time.monotonic() - start < 4.0
        finally:
            release.set()

    def test_bad_worker_args_length(self):
        with pytest.raises(ValueError, match="worker_args must have length 2"):
            run_distributed(lambda rank, comm, arg: arg, 2, worker_args=[1])

    def test_invalid_exchange_destination(self):
        def worker(rank, comm):
            comm.exchange("x", {99: np.ones(1)})

        with pytest.raises(RuntimeError):
            run_distributed(worker, 2, timeout_s=20)


class TestMemoryAndTiming:
    def test_per_worker_memory_isolated(self):
        def worker(rank, comm):
            tensors = [Tensor(np.zeros((1000 * (rank + 1),), dtype=np.float32))]
            comm.barrier()
            return tensors[0].nbytes

        result = run_distributed(worker, 3)
        peaks = result.peak_memory_bytes
        assert peaks[0] < peaks[1] < peaks[2]
        assert peaks[0] >= 4000

    def test_compute_times_recorded(self):
        def worker(rank, comm):
            x = np.random.randn(400, 400)
            for _ in range(10):
                x = x @ x.T
                x /= np.abs(x).max()
            return None

        result = run_distributed(worker, 2)
        assert all(t >= 0 for t in result.compute_times)
        assert max(result.compute_times) > 0

    def test_summary_keys(self):
        result = run_distributed(lambda rank, comm: None, 2)
        summary = result.summary()
        assert {"world_size", "max_peak_memory_mb", "max_compute_time_s",
                "total_comm_mb"} <= set(summary)


class TestCostModel:
    def _result(self, world_size=2):
        def worker(rank, comm):
            local = Tensor(np.ones(1000, dtype=np.float32))
            comm.publish("x", local.data)
            comm.fetch((rank + 1) % comm.world_size, "x")
            comm.barrier()
            return None

        return run_distributed(worker, world_size)

    def test_epoch_cost_includes_compute_and_comm(self):
        report = epoch_cost(self._result(), ClusterSpec(bandwidth_mbps=1.0, latency_s=0.0))
        assert report.epoch_time_s >= report.comm_time_s > 0

    def test_lower_bandwidth_increases_modeled_time(self):
        result = self._result()
        fast = epoch_cost(result, ClusterSpec(bandwidth_mbps=10_000.0))
        slow = epoch_cost(result, ClusterSpec(bandwidth_mbps=1.0))
        assert slow.epoch_time_s > fast.epoch_time_s

    def test_oom_flag(self):
        result = self._result()
        spec = ClusterSpec(memory_budget_mb=1e-9)
        assert epoch_cost(result, spec).any_oom
        assert not epoch_cost(result, ClusterSpec(memory_budget_mb=1e6)).any_oom

    def test_num_epochs_scales_down(self):
        result = self._result()
        one = epoch_cost(result, num_epochs=1)
        two = epoch_cost(result, num_epochs=2)
        assert two.epoch_time_s < one.epoch_time_s

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            epoch_cost(self._result(), num_epochs=0)

    def test_transfer_time_is_bandwidth_plus_latency(self):
        spec = ClusterSpec(bandwidth_mbps=2.0, latency_s=0.01)
        assert np.isclose(spec.transfer_time(4 * 1024 * 1024), 2.0)
        assert np.isclose(spec.transfer_time(0, messages=3), 0.03)
        assert np.isclose(spec.transfer_time(1024 * 1024, messages=1), 0.51)

    def test_compute_scale_scales_compute_only(self):
        result = self._result()
        base = epoch_cost(result, ClusterSpec(compute_scale=1.0))
        fast = epoch_cost(result, ClusterSpec(compute_scale=0.5))
        for a, b in zip(base.workers, fast.workers):
            assert np.isclose(b.compute_time_s, 0.5 * a.compute_time_s)
            assert b.comm_time_s == a.comm_time_s


class TestSharedStoreFixes:
    """Regression tests for the thread-backend aliasing and waiting fixes."""

    def test_self_fetch_whole_array_is_a_copy(self):
        """Mutating a self-fetched array must not corrupt what peers fetch."""
        def worker(rank, comm):
            comm.publish("w", np.zeros(4, dtype=np.float32))
            own = comm.fetch(rank, "w")  # rows=None: previously aliased the store
            own += 99.0
            comm.barrier()
            peer = comm.fetch((rank + 1) % 2, "w")
            comm.barrier()
            return float(peer.sum())

        result = run_distributed(worker, 2)
        assert result.results == [0.0, 0.0]

    def test_self_fetch_row_subset_is_a_copy(self):
        def worker(rank, comm):
            data = np.arange(6, dtype=np.float32)
            comm.publish("w", data)
            rows = comm.fetch(rank, "w", rows=np.array([0, 1]))
            rows += 50.0
            comm.barrier()
            return float(data[0])

        result = run_distributed(worker, 2)
        assert result.results == [0.0, 0.0]

    def test_wait_get_blocks_until_publish_and_times_out(self):
        import threading
        import time

        from repro.distributed.thread_backend import SharedStore

        store = SharedStore(world_size=2, timeout_s=0.2)
        with pytest.raises(TimeoutError):
            store.wait_get(0, "missing")

        store = SharedStore(world_size=2, timeout_s=30.0)
        payload = np.arange(3, dtype=np.float32)

        def publish_later():
            time.sleep(0.05)
            store.put(1, "late", payload)

        thread = threading.Thread(target=publish_later)
        start = time.monotonic()
        thread.start()
        got = store.wait_get(1, "late")
        elapsed = time.monotonic() - start
        thread.join()
        np.testing.assert_array_equal(got, payload)
        assert elapsed < 5.0  # woke on the event, not the full timeout

    def test_wait_get_sees_republished_key(self):
        import threading
        import time

        from repro.distributed.thread_backend import SharedStore

        store = SharedStore(world_size=2, timeout_s=30.0)
        store.put(0, "k", np.zeros(1, dtype=np.float32))
        store.remove(0, "k")

        def republished():
            time.sleep(0.05)
            store.put(0, "k", np.ones(1, dtype=np.float32))

        thread = threading.Thread(target=republished)
        thread.start()
        got = store.wait_get(0, "k")
        thread.join()
        np.testing.assert_array_equal(got, np.ones(1, dtype=np.float32))


class TestCommStatsSnapshot:
    def test_snapshot_consistent_under_concurrent_updates(self):
        import threading

        from repro.distributed.comm import CommStats

        stats = CommStats()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                stats.record_send(7, tag="halo")
                stats.record_recv(7, tag="halo")

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = stats.snapshot()
                # Per-tag byte totals must always agree with message counts.
                assert snap.get("sent:halo", 0) == 7 * snap["messages_sent"]
                assert snap.get("recv:halo", 0) == 7 * snap["messages_received"]
                assert snap["bytes_sent"] == snap.get("sent:halo", 0)
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_counters_pickle_without_their_lock(self):
        """What a forked worker ships back: counters intact, a lock of its own."""
        stats, tracker = CommStats(), MemoryTracker(label="worker-1")
        stats.record_send(5, tag="a")
        stats.record_recv(7, tag="b")
        stats.record_cache(1, 2, 3)
        kept = np.zeros(6, np.uint8)
        tracker.acquire(kept)
        tracker.let_go(tracker.acquire(np.zeros(4, np.uint8)))
        stats_copy, tracker_copy = pickle.loads(pickle.dumps((stats, tracker)))
        assert stats_copy == stats and stats_copy.snapshot() == stats.snapshot()
        assert tracker_copy.snapshot() == tracker.snapshot()
        assert stats_copy._lock is not stats._lock and tracker_copy._lock is not tracker._lock
        assert tracker_copy._held == {}  # holder ids name this process's objects
        stats_copy.record_send(1, tag="a")
        tracker_copy.acquire(np.zeros(1, np.uint8))
        assert stats_copy.sent_by_tag == {"a": 6} and stats.sent_by_tag == {"a": 5}
        assert tracker_copy.peak_bytes == 10 and tracker_copy.current_bytes == 7

    def test_abort_wakes_reader_even_after_event_discarded(self):
        import threading
        import time

        from repro.distributed.thread_backend import ClusterAborted, SharedStore

        store = SharedStore(world_size=2, timeout_s=30.0)
        outcome = {}

        def reader():
            try:
                store.wait_get(0, "k")
            except ClusterAborted:
                outcome["aborted_at"] = time.monotonic()

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)  # reader is parked on its registered event
        store.remove(0, "k")  # discards the event the reader may hold
        start = time.monotonic()
        store.abort("boom")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["aborted_at"] - start < 2.0  # woke promptly, not at timeout
