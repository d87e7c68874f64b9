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

import concurrent.futures
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.distributed.comm import Communicator, CommStats

_DEFAULT_TIMEOUT_S = 120.0


class ClusterAborted(RuntimeError):
    """Raised on all workers when any worker fails, to avoid deadlocks."""


class SharedStore:
    """What the workers of one thread cluster share.

    A key/value store of published arrays with blocking reads, the cluster
    barrier (here so that :meth:`abort` can break it) and every rank's
    :class:`CommStats` (here so that a fetch can book the owner's send).
    """

    def __init__(self, world_size: int, timeout_s: float = _DEFAULT_TIMEOUT_S):
        self.world_size = world_size
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._data: Dict[Tuple[int, str], np.ndarray] = {}
        self._events: Dict[Tuple[int, str], threading.Event] = {}
        self.barrier = threading.Barrier(world_size)
        self.stats = [CommStats() for _ in range(world_size)]
        self.failure = threading.Event()
        self.failure_message: Optional[str] = None

    # -- failure handling ------------------------------------------------ #
    def abort(self, message: str) -> None:
        with self._lock:
            if self.failure_message is None:
                self.failure_message = message
        self.failure.set()
        self.barrier.abort()
        # Wake up any blocked readers.
        with self._lock:
            for event in self._events.values():
                event.set()

    def check_failure(self) -> None:
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
            self.check_failure()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"Timed out waiting for rank {owner} to publish {key!r} "
                    f"after {self.timeout_s:.0f}s"
                )
            event = self._event_for(owner, key)
            if not event.wait(min(remaining, 0.1)):
                continue
            self.check_failure()
            with self._lock:
                if (owner, key) in self._data:
                    return self._data[(owner, key)]
            # Event set without data: abort() (raises below) or a transient
            # publish/remove race — back off briefly instead of spinning.
            self.check_failure()
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

    def keys_of(self, owner: int) -> List[str]:
        with self._lock:
            return [key for (o, key) in self._data if o == owner]


class ThreadCommunicator(Communicator):
    """The :class:`Communicator` primitives over a :class:`SharedStore`.

    A publish stores the caller's array by reference, and a read hands that
    same array out, so a late reader still holds what it read after the key
    is withdrawn.  Sharing an address space also lets a fetch bump the
    *owner's* send counters live, which a process backend cannot: here
    sent and received bytes agree cluster-wide.
    """

    def __init__(self, rank: int, store: SharedStore):
        super().__init__(rank, store.world_size)
        self._store = store
        self.stats = store.stats[rank]

    def _publish(self, arrays: Dict[str, np.ndarray]) -> None:
        for key, array in arrays.items():
            self._store.put(self.rank, key, array)

    def _drop(self, keys: Iterable[str]) -> None:
        for key in keys:
            self._store.remove(self.rank, key)

    def _keys(self) -> List[str]:
        return self._store.keys_of(self.rank)

    def _read(self, owner_rank: int, key: str, block: bool = True) -> Optional[np.ndarray]:
        read = self._store.wait_get if block else self._store.try_get
        return read(owner_rank, key)

    def _rendezvous(self) -> None:
        self._store.check_failure()
        try:
            self._store.barrier.wait(timeout=self._store.timeout_s)
        except threading.BrokenBarrierError as exc:
            raise ClusterAborted(
                self._store.failure_message or "barrier broken (a worker died)"
            ) from exc

    def fetch(
        self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None, tag: str = "halo"
    ) -> np.ndarray:
        out = super().fetch(owner_rank, key, rows, tag)
        if owner_rank != self.rank:
            self._store.stats[owner_rank].record_send(out.nbytes, tag=tag)
        return out


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
    job fails on the aborted cluster.  The workers are daemon threads: one
    that never returns costs its job the timeout, never the interpreter.
    """

    #: workers see the caller's objects live: a mutation made between jobs
    #: (model weights, a shared feature store) needs no shipping.
    shares_address_space = True

    def __init__(
        self,
        service_factory: Callable[[int, Communicator], Callable],
        world_size: int,
        timeout_s: float = _DEFAULT_TIMEOUT_S,
        name: str = "service",
    ):
        self.world_size = world_size
        self.name = name
        self._service_factory = service_factory
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._jobs: List["queue.Queue"] = []
        self._threads: List[threading.Thread] = []

    def start(self) -> "ThreadServiceCluster":
        """Spawn the workers and wait for every rank's handler to be built."""
        self._store = SharedStore(self.world_size, timeout_s=self._timeout_s)
        comms = [ThreadCommunicator(rank, self._store) for rank in range(self.world_size)]
        self._jobs = [queue.Queue() for _ in comms]
        ready: List[Future] = [Future() for _ in comms]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(comm, jobs, future),
                name=f"{self.name}-{comm.rank}",
                daemon=True,
            )
            for comm, jobs, future in zip(comms, self._jobs, ready)
        ]
        for thread in self._threads:
            thread.start()
        try:
            self._gather(ready)
        except BaseException:
            self.stop()
            raise
        return self

    def _worker(self, comm: ThreadCommunicator, jobs: "queue.Queue", ready: Future) -> None:
        try:
            handler = self._service_factory(comm.rank, comm)
        except BaseException as exc:  # noqa: BLE001 - report, unblock peers
            self._store.abort(f"{self.name} worker {comm.rank} failed to start: {exc!r}")
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
                self._store.abort(f"{self.name} worker {comm.rank} failed: {exc!r}")
                future.set_exception(exc)

    def stop(self) -> None:
        """Drain every worker's queued jobs, then join it — idempotent.

        The joins share one ``timeout_s``; a worker stuck past it is left
        behind (a daemon thread: it cannot keep the interpreter alive).
        """
        with self._lock:
            threads, self._threads = self._threads, []
        for jobs in self._jobs:
            jobs.put(None)
        deadline = time.monotonic() + self._timeout_s
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    @property
    def running(self) -> bool:
        return bool(self._threads) and all(t.is_alive() for t in self._threads)

    def stats(self) -> dict:
        """Transport-level telemetry (threads have none; the mp twin reports processes)."""
        return {}

    def request(self, kind: str, payload: Any = None) -> List[Any]:
        """Run one job on every worker; per-rank results indexed by rank.

        Thread-safe (jobs from concurrent callers are serialized, so every
        worker sees the same job order).  A worker's exception propagates —
        the root cause, not a survivor's follow-on :class:`ClusterAborted` —
        and a rank still owed a result after ``timeout_s`` fails the job with
        a :class:`TimeoutError` naming it.
        """
        with self._lock:
            if not self.running:
                raise RuntimeError("cluster is not running")
            futures: List[Future] = [Future() for _ in self._jobs]
            for jobs, future in zip(self._jobs, futures):
                jobs.put((kind, payload, future))
            return self._gather(futures)

    def _gather(self, futures: List[Future]) -> List[Any]:
        """Every rank's result, or the failure that explains why there is none."""
        pending = concurrent.futures.wait(futures, timeout=self._timeout_s).not_done
        errors = [f.exception() for f in futures if f not in pending and f.exception()]
        failure = next((e for e in errors if not isinstance(e, ClusterAborted)), None)
        if pending:
            missing = [rank for rank, future in enumerate(futures) if future in pending]
            overdue = TimeoutError(
                f"{self.name} workers timed out after {self._timeout_s:.0f}s "
                f"waiting for ranks {missing}"
            )
            # Whoever waits for an overdue rank unblocks; later jobs fail at once.
            self._store.abort(str(overdue))
            failure = failure or overdue
        if failure or errors:
            raise failure or errors[0]
        return [future.result() for future in futures]
