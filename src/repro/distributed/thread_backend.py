"""In-process cluster backend: one thread per worker, a shared key/value store.

This backend gives every worker blocking point-to-point and collective
primitives with the same synchronization structure as a real
``torch.distributed`` deployment, while keeping everything inside one Python
process so the benchmarks can run on a laptop.  NumPy releases the GIL for
the heavy kernels, so workers do overlap; per-worker *compute* time is
measured with thread CPU clocks (see :mod:`repro.utils.timing`) to stay
independent of host core counts.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.comm import STREAM_KEY_PREFIX, Communicator, CommStats, reduce_arrays

_DEFAULT_TIMEOUT_S = 120.0


class ClusterAborted(RuntimeError):
    """Raised on all workers when any worker fails, to avoid deadlocks."""


class SharedStore:
    """Shared key/value store of published arrays, with blocking reads."""

    def __init__(self, world_size: int, timeout_s: float = _DEFAULT_TIMEOUT_S):
        self.world_size = world_size
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._data: Dict[Tuple[int, str], np.ndarray] = {}
        self._events: Dict[Tuple[int, str], threading.Event] = {}
        self._barrier: Optional[threading.Barrier] = None
        self.failure = threading.Event()
        self.failure_message: Optional[str] = None

    def attach_barrier(self, barrier: threading.Barrier) -> None:
        """Register the cluster barrier so :meth:`abort` can break it."""
        self._barrier = barrier

    # -- failure handling ------------------------------------------------ #
    def abort(self, message: str) -> None:
        with self._lock:
            if self.failure_message is None:
                self.failure_message = message
        self.failure.set()
        if self._barrier is not None:
            self._barrier.abort()
        # Wake up any blocked readers.
        with self._lock:
            for event in self._events.values():
                event.set()

    def _check_failure(self) -> None:
        if self.failure.is_set():
            raise ClusterAborted(self.failure_message or "another worker failed")

    # -- data access ------------------------------------------------------ #
    def _event_for(self, owner: int, key: str) -> threading.Event:
        with self._lock:
            event = self._events.get((owner, key))
            if event is None:
                event = threading.Event()
                self._events[(owner, key)] = event
            return event

    def put(self, owner: int, key: str, array: np.ndarray) -> None:
        event = self._event_for(owner, key)
        with self._lock:
            self._data[(owner, key)] = array
        event.set()

    def wait_get(self, owner: int, key: str) -> np.ndarray:
        """Block until ``(owner, key)`` is published; return the stored array.

        The wait parks on the publish event (``abort`` sets every registered
        event, so failures wake blocked readers) instead of spinning on a
        2 ms poll.  Waits are sliced so the event reference is re-acquired a
        few times per second: ``remove()`` discards the event object, and a
        reader parked on a discarded event would otherwise miss both a
        re-publish (which installs a fresh event) and ``abort`` (which only
        sets events still registered).
        """
        deadline = time.monotonic() + self.timeout_s
        while True:
            self._check_failure()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"Timed out waiting for rank {owner} to publish {key!r} "
                    f"after {self.timeout_s:.0f}s"
                )
            event = self._event_for(owner, key)
            if not event.wait(min(remaining, 0.1)):
                continue
            self._check_failure()
            with self._lock:
                if (owner, key) in self._data:
                    return self._data[(owner, key)]
            # Event set without data: abort() (raises below) or a transient
            # publish/remove race — back off briefly instead of spinning.
            self._check_failure()
            time.sleep(0.002)

    def try_get(self, owner: int, key: str) -> Optional[np.ndarray]:
        with self._lock:
            return self._data.get((owner, key))

    def remove(self, owner: int, key: str) -> None:
        with self._lock:
            self._data.pop((owner, key), None)
            event = self._events.pop((owner, key), None)
        if event is not None:
            event.clear()

    def clear_owner(self, owner: int, keep_prefix: Optional[str] = None) -> None:
        """Drop all of ``owner``'s entries, except keys under ``keep_prefix``."""
        with self._lock:
            keys = [
                k for k in self._data
                if k[0] == owner and not (keep_prefix and k[1].startswith(keep_prefix))
            ]
            for k in keys:
                self._data.pop(k, None)
                self._events.pop(k, None)

    def keys_of(self, owner: int) -> List[str]:
        with self._lock:
            return [key for (o, key) in self._data if o == owner]


class ThreadCommunicator(Communicator):
    """Communicator backed by a :class:`SharedStore` and a shared barrier."""

    def __init__(self, rank: int, world_size: int, store: SharedStore,
                 barrier: threading.Barrier, peer_stats: List[CommStats]):
        super().__init__(rank, world_size)
        self._store = store
        self._barrier = barrier
        self._peer_stats = peer_stats
        self.stats = peer_stats[rank]
        self._collective_counter = 0

    # -- point-to-point ------------------------------------------------- #
    def publish(self, key: str, array: np.ndarray) -> None:
        self._store.put(self.rank, key, np.asarray(array))

    def fetch(self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None,
              tag: str = "halo") -> np.ndarray:
        if owner_rank == self.rank:
            array = self._store.wait_get(owner_rank, key)
            # A row fetch already copies (fancy indexing); the whole-array
            # case must copy too — returning the published array itself would
            # let caller mutation silently corrupt what peers fetch.
            return array[rows] if rows is not None else array.copy()
        array = self._store.wait_get(owner_rank, key)
        out = array[np.asarray(rows)].copy() if rows is not None else array.copy()
        nbytes = out.nbytes
        self.stats.record_recv(nbytes, tag=tag)
        self._peer_stats[owner_rank].record_send(nbytes, tag=tag)
        return out

    def unpublish(self, key: str) -> None:
        self._store.remove(self.rank, key)

    def clear_published(self) -> None:
        # Keyed-stream payloads (background sampling frontiers) survive the
        # iteration-boundary sweep; they are reclaimed via release_keyed.
        self._store.clear_owner(self.rank, keep_prefix=STREAM_KEY_PREFIX)

    # -- collectives ------------------------------------------------------ #
    def barrier(self) -> None:
        if self._store.failure.is_set():
            raise ClusterAborted(self._store.failure_message or "another worker failed")
        try:
            self._barrier.wait(timeout=self._store.timeout_s)
        except threading.BrokenBarrierError as exc:
            raise ClusterAborted(
                self._store.failure_message or "barrier broken (a worker died)"
            ) from exc

    def _next_collective_key(self, name: str) -> str:
        self._collective_counter += 1
        return f"__coll/{name}/{self._collective_counter}"

    def exchange(self, key: str, outgoing: Dict[int, np.ndarray],
                 tag: str = "exchange") -> Dict[int, np.ndarray]:
        prefix = f"__xchg/{key}"
        for dest, array in outgoing.items():
            if not 0 <= dest < self.world_size:
                raise ValueError(f"exchange destination {dest} out of range")
            array = np.asarray(array)
            self._store.put(self.rank, f"{prefix}/to{dest}", array)
            if dest != self.rank:
                self.stats.record_send(array.nbytes, tag=tag)
        self.barrier()
        received: Dict[int, np.ndarray] = {}
        for sender in range(self.world_size):
            array = self._store.try_get(sender, f"{prefix}/to{self.rank}")
            if array is None:
                continue
            if sender == self.rank:
                received[sender] = array
            else:
                received[sender] = array.copy()
                self.stats.record_recv(array.nbytes, tag=tag)
        self.barrier()
        for dest in outgoing:
            self._store.remove(self.rank, f"{prefix}/to{dest}")
        return received

    def allreduce(self, array: np.ndarray, op: str = "sum", tag: str = "allreduce") -> np.ndarray:
        array = np.asarray(array)
        key = self._next_collective_key("allreduce")
        self._store.put(self.rank, key, array)
        contributions = [self._store.wait_get(r, key) for r in range(self.world_size)]
        result = reduce_arrays(contributions, op).astype(array.dtype, copy=False)
        # Ring-allreduce volume: each worker sends/receives ~2·(N-1)/N of the payload.
        ring_bytes = int(2 * array.nbytes * (self.world_size - 1) / max(self.world_size, 1))
        self.stats.record_send(ring_bytes, tag=tag)
        self.stats.record_recv(ring_bytes, tag=tag)
        self.barrier()
        self._store.remove(self.rank, key)
        return result

    def allgather(self, array: np.ndarray, tag: str = "allgather") -> List[np.ndarray]:
        array = np.asarray(array)
        key = self._next_collective_key("allgather")
        self._store.put(self.rank, key, array)
        gathered = []
        for r in range(self.world_size):
            remote = self._store.wait_get(r, key)
            if r != self.rank:
                remote = remote.copy()
                self.stats.record_recv(remote.nbytes, tag=tag)
                self.stats.record_send(array.nbytes, tag=tag)
            gathered.append(remote)
        self.barrier()
        self._store.remove(self.rank, key)
        return gathered


def create_thread_communicators(world_size: int,
                                timeout_s: float = _DEFAULT_TIMEOUT_S
                                ) -> Tuple[List[ThreadCommunicator], SharedStore]:
    """Create one communicator per worker sharing a store and a barrier."""
    store = SharedStore(world_size, timeout_s=timeout_s)
    barrier = threading.Barrier(world_size)
    store.attach_barrier(barrier)
    peer_stats = [CommStats() for _ in range(world_size)]
    comms = [
        ThreadCommunicator(rank, world_size, store, barrier, peer_stats)
        for rank in range(world_size)
    ]
    return comms, store


class ThreadServiceCluster:
    """``world_size`` long-lived worker threads behind per-rank job queues.

    The thread twin of :class:`repro.distributed.mp_backend.
    MultiprocessServiceCluster`, with the same surface — ``start()``,
    ``request(kind, payload)``, ``stop()``, ``stats()`` — so a caller
    (the serving shard executor) is written once against either transport.
    Each worker runs ``handler = service_factory(rank, comm)`` once
    (collective construction is fine: all workers run it concurrently) and
    then answers jobs; a handler exception aborts the shared store first, so
    peers blocked in the failed job's collectives unblock, and every later
    job fails on the aborted cluster.
    """

    #: workers see the caller's objects live: a mutation made between jobs
    #: (model weights, a shared feature store) needs no shipping.
    shares_address_space = True

    def __init__(self, service_factory: Callable[[int, Communicator], Callable],
                 world_size: int, timeout_s: float = _DEFAULT_TIMEOUT_S,
                 name: str = "service"):
        self.world_size = world_size
        self.name = name
        self._service_factory = service_factory
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._jobs: List["queue.Queue"] = []
        self._threads: List[threading.Thread] = []

    def start(self) -> "ThreadServiceCluster":
        """Spawn the workers and wait for every rank's handler to be built."""
        # The communicators (and the store of published arrays behind them)
        # live exactly as long as the worker threads that hold them.
        comms, store = create_thread_communicators(
            self.world_size, timeout_s=self._timeout_s
        )
        self._jobs = [queue.Queue() for _ in comms]
        ready: List[Future] = [Future() for _ in comms]
        self._threads = [
            threading.Thread(target=self._worker, args=(comm, store, jobs, future),
                             name=f"{self.name}-{comm.rank}", daemon=True)
            for comm, jobs, future in zip(comms, self._jobs, ready)
        ]
        for thread in self._threads:
            thread.start()
        try:
            for future in ready:
                future.result(self._timeout_s)
        except BaseException:
            self.stop()
            raise
        return self

    def _worker(self, comm: ThreadCommunicator, store: SharedStore,
                jobs: "queue.Queue", ready: Future) -> None:
        try:
            handler = self._service_factory(comm.rank, comm)
        except BaseException as exc:  # noqa: BLE001 - report, unblock peers
            store.abort(f"{self.name} worker {comm.rank} failed to start: {exc!r}")
            ready.set_exception(exc)
            return
        ready.set_result(None)
        while True:
            job = jobs.get()
            if job is None:
                break
            kind, payload, future = job
            try:
                future.set_result(handler(kind, payload))
            except BaseException as exc:  # noqa: BLE001 - keep the loop alive
                store.abort(f"{self.name} worker {comm.rank} failed: {exc!r}")
                future.set_exception(exc)

    def stop(self) -> None:
        """Drain every worker's queued jobs, then join it — idempotent."""
        with self._lock:
            threads, self._threads = self._threads, []
        for jobs in self._jobs:
            jobs.put(None)
        for thread in threads:
            thread.join(self._timeout_s)

    @property
    def running(self) -> bool:
        return bool(self._threads) and all(t.is_alive() for t in self._threads)

    def stats(self) -> dict:
        """Transport-level telemetry (threads have none; the mp twin reports processes)."""
        return {}

    def request(self, kind: str, payload: Any = None) -> List[Any]:
        """Run one job on every worker; per-rank results indexed by rank.

        Thread-safe (jobs from concurrent callers are serialized, so every
        worker sees the same job order).  A worker's exception propagates.
        """
        with self._lock:
            if not self.running:
                raise RuntimeError("cluster is not running")
            futures: List[Future] = []
            for jobs in self._jobs:
                future: Future = Future()
                jobs.put((kind, payload, future))
                futures.append(future)
            return [future.result(self._timeout_s) for future in futures]
