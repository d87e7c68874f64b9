"""In-process cluster backend: one thread per worker, over the shared-memory data plane.

This backend gives every worker blocking point-to-point and collective
primitives with the same synchronization structure as a real
``torch.distributed`` deployment, while keeping everything inside one Python
process so the benchmarks can run on a laptop.  The ranks talk through the
same :class:`~repro.distributed.plane.ArenaCommunicator` the forked ranks
use, over one :class:`~repro.distributed.plane.SharedPlane` this driver maps
with ``threading`` locks: a publish is a snapshot in the owner's arena and a
fetch is booked by the receiver, as on processes.  NumPy releases the GIL
for the heavy kernels, so workers do overlap; per-worker *compute* time is
measured with thread CPU clocks (see :mod:`repro.utils.timing`) to stay
independent of host core counts.
"""

from __future__ import annotations

import concurrent.futures
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional

from repro.distributed.comm import Communicator
from repro.distributed.plane import ArenaCommunicator, SharedPlane, WorkerFailedError

_DEFAULT_TIMEOUT_S = 120.0


class ThreadServiceCluster:
    """``world_size`` long-lived worker threads behind per-rank job queues.

    The thread twin of :class:`repro.distributed.mp_backend.
    MultiprocessServiceCluster`, with the same surface — ``start()``,
    ``request(kind, payload)``, ``stop()``, ``stats()`` — so a caller
    (the serving shard executor) is written once against either transport.
    Each worker runs ``handler = service_factory(rank, comm)`` once
    (collective construction is fine: all workers run it concurrently) and
    then answers jobs; a handler exception aborts the plane first, so peers
    blocked in the failed job's collectives unblock, and every later job
    fails on the aborted cluster.  The workers are daemon threads: one that
    never returns costs its job the timeout, never the interpreter.
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
        self._plane: Optional[SharedPlane] = None

    def start(self) -> "ThreadServiceCluster":
        """Map the data plane, spawn the workers, wait for every rank's handler to be built."""
        self._plane = SharedPlane(threading, self.world_size)
        comms = [
            ArenaCommunicator(rank, self.world_size, self._plane, self._timeout_s)
            for rank in range(self.world_size)
        ]
        self._jobs = [queue.Queue() for _ in comms]
        ready: List[Future] = [Future() for _ in comms]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(self._plane, comm, jobs, future),
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

    def _worker(
        self, plane: SharedPlane, comm: Communicator, jobs: "queue.Queue", ready: Future
    ) -> None:
        try:
            handler = self._service_factory(comm.rank, comm)
        except BaseException as exc:  # noqa: BLE001 - report, unblock peers
            plane.abort(f"{self.name} worker {comm.rank} failed to start: {exc!r}")
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
                plane.abort(f"{self.name} worker {comm.rank} failed: {exc!r}")
                future.set_exception(exc)

    def stop(self) -> None:
        """Drain every worker's queued jobs, then join it — idempotent.

        The joins share one ``timeout_s``; a worker stuck past it is left
        behind (a daemon thread: it cannot keep the interpreter alive).  The
        plane is dropped, not closed: a view of an arena the caller kept (a
        ``publish()`` result, a store's local rows) stays readable, and the
        mappings go with their last reference.
        """
        with self._lock:
            threads, self._threads = self._threads, []
        for jobs in self._jobs:
            jobs.put(None)
        deadline = time.monotonic() + self._timeout_s
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._plane = None

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
        the root cause, not a survivor's follow-on :class:`WorkerFailedError` —
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
        failure = next((e for e in errors if not isinstance(e, WorkerFailedError)), None)
        if pending:
            missing = [rank for rank, future in enumerate(futures) if future in pending]
            overdue = TimeoutError(
                f"{self.name} workers timed out after {self._timeout_s:.0f}s "
                f"waiting for ranks {missing}"
            )
            # Whoever waits for an overdue rank unblocks; later jobs fail at once.
            self._plane.abort(str(overdue))
            failure = failure or overdue
        if failure or errors:
            raise failure or errors[0]
        return [future.result() for future in futures]
