"""Multiprocessing backend (true multi-process workers on one host).

The thread backend in :mod:`repro.distributed.thread_backend` is the default
because it is fast to spin up and lets the benchmarks simulate up to 32
workers cheaply.  This module provides a small, slower, but *genuinely*
multi-process backend built on :mod:`multiprocessing` primitives, matching
the paper's deployment model of one training process per machine ("repro
band": multi-process on one big server).  It exists to demonstrate that the
SAR algorithms only rely on the abstract :class:`Communicator` interface; the
example/test keep the worker count and graph size small.

Usage::

    from repro.distributed.mp_backend import run_multiprocess
    results = run_multiprocess(worker_fn, world_size=2)

``worker_fn`` takes the usual ``(rank, comm, *args)`` signature and returns a
picklable result.  Workers are forked (the ``fork`` start method is
required), so the function and its arguments reach them by address-space
copy.

There is one process driver, :class:`MultiprocessServiceCluster`: forked
workers answering ``(kind, payload)`` jobs until stopped.
:func:`run_multiprocess` is a single-job use of it; the ``"mp"`` serving
backend keeps one alive for the server's lifetime.

Failure semantics
-----------------

* A worker whose job **raises** writes an abort flag into the shared store
  and breaks the barrier before posting its error, so survivors blocked in
  a collective unblock promptly (instead of spinning until their timeout)
  and post their own errors.  The parent raises :class:`WorkerFailedError`
  naming the failing rank.
* A worker that **dies without posting anything** (killed, segfault,
  ``os._exit``) is detected by polling ``Process.is_alive`` alongside the
  response queue; the parent aborts the cluster the same way and raises
  naming the dead rank and its exit code.
* A job that exceeds the cluster's **timeout** aborts the cluster and raises
  naming the ranks still owed a response.
* On every path — success, error, crash, timeout — :meth:`~
  MultiprocessServiceCluster.stop` terminates any worker that does not exit
  within a short grace period: no child process outlives the
  :func:`run_multiprocess` call or the stopped cluster.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.comm import STREAM_KEY_PREFIX, Communicator, reduce_arrays

_DEFAULT_TIMEOUT_S = 300.0
#: parent-side liveness-check interval while draining the result queue
_POLL_S = 0.2
#: bounded wait slice while a worker is parked on the store condition
_WAIT_SLICE_S = 0.1
#: how long survivors get to post their errors after the cluster aborts
_ABORT_GRACE_S = 10.0
#: store key carrying the abort message (rank ``-1`` collides with no worker)
_ABORT_KEY = (-1, "__abort__")


class WorkerFailedError(RuntimeError):
    """One or more worker processes raised, died, or timed out."""


def _poison_cluster(store, barrier, condition, message: str) -> None:
    """Flag the cluster as aborted and wake every blocked worker.

    Writes the abort message into the shared store (every communicator wait
    loop checks it), breaks the barrier (unblocks collectives), and
    broadcasts the store condition (unblocks parked ``_wait_get`` readers).
    Each step tolerates a Manager that is already torn down.
    """
    try:
        store[_ABORT_KEY] = message
    except Exception:  # pragma: no cover - manager already gone
        pass
    try:
        barrier.abort()
    except Exception:  # pragma: no cover - manager already gone
        pass
    try:
        with condition:
            condition.notify_all()
    except Exception:  # pragma: no cover - manager already gone
        pass


class MultiprocessCommunicator(Communicator):
    """Communicator backed by a ``multiprocessing.Manager`` dict and barrier.

    Blocking reads park on a shared Manager :class:`~threading.Condition` in
    bounded slices (every publish notifies it) instead of hammering the
    Manager proxy with a few-millisecond poll, and every wait loop checks the
    abort flag so a peer failure propagates within one slice.
    """

    def __init__(
        self,
        rank: int,
        world_size: int,
        store,
        barrier,
        condition,
        timeout_s: float = _DEFAULT_TIMEOUT_S,
    ):
        super().__init__(rank, world_size)
        self._store = store
        self._barrier = barrier
        self._cond = condition
        self._timeout_s = timeout_s
        self._collective_counter = 0
        self._exchange_counter = 0

    # -- point-to-point ------------------------------------------------- #
    def _put_and_notify(self, store_key, array: np.ndarray) -> None:
        self._store[store_key] = array
        with self._cond:
            self._cond.notify_all()

    def _check_abort(self) -> None:
        message = self._store.get(_ABORT_KEY)
        if message is not None:
            raise WorkerFailedError(f"rank {self.rank}: cluster aborted: {message}")

    def publish(self, key: str, array: np.ndarray) -> None:
        self._put_and_notify((self.rank, key), np.asarray(array))

    def _wait_get(self, owner_rank: int, key: str) -> np.ndarray:
        deadline = time.monotonic() + self._timeout_s
        while True:
            value = self._store.get((owner_rank, key))
            if value is not None:
                return value
            self._check_abort()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank} timed out waiting for rank {owner_rank} key {key!r}"
                )
            with self._cond:
                # Re-check under the lock: a publisher cannot notify between
                # this get and the wait (notify needs the same lock), so a
                # publish is either seen here or wakes the wait below.
                if self._store.get((owner_rank, key)) is None:
                    self._cond.wait(min(_WAIT_SLICE_S, remaining))

    def fetch(
        self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None, tag: str = "halo"
    ) -> np.ndarray:
        array = self._wait_get(owner_rank, key)
        out = array[np.asarray(rows)] if rows is not None else np.array(array, copy=True)
        if owner_rank != self.rank:
            self.stats.record_recv(out.nbytes, tag=tag)
        return out

    def unpublish(self, key: str) -> None:
        self._store.pop((self.rank, key), None)

    def clear_published(self) -> None:
        # Keyed-stream payloads (background sampling frontiers) survive the
        # iteration-boundary sweep; they are reclaimed via release_keyed.
        for store_key in list(self._store.keys()):
            if store_key[0] == self.rank and not store_key[1].startswith(STREAM_KEY_PREFIX):
                self._store.pop(store_key, None)

    # -- collectives ----------------------------------------------------- #
    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self._timeout_s)
        except Exception as exc:  # BrokenBarrierError (proxied) or timeout
            self._check_abort()
            raise WorkerFailedError(
                f"rank {self.rank}: barrier broken or timed out (a worker died "
                f"or exceeded the {self._timeout_s:.0f}s timeout)"
            ) from exc

    def exchange(
        self, key: str, outgoing: Dict[int, np.ndarray], tag: str = "exchange"
    ) -> Dict[int, np.ndarray]:
        """All-to-all over the store: one write and one pop-read per peer.

        Each rank's payload for a peer is written once under a per-call
        unique prefix; after a single barrier the receiver *pops* the entries
        addressed to it, so the read doubles as cleanup and the old
        second barrier (which only guarded a cleanup sweep) is gone.  The
        per-call counter advances identically on every rank, so a slow
        reader can never collide with the next call's entries.
        """
        self._exchange_counter += 1
        prefix = f"__xchg/{self._exchange_counter}/{key}"
        received: Dict[int, np.ndarray] = {}
        for dest, array in outgoing.items():
            if not 0 <= dest < self.world_size:
                raise ValueError(f"exchange destination {dest} out of range")
            array = np.asarray(array)
            if dest == self.rank:
                received[self.rank] = np.array(array, copy=True)
                continue
            self._store[(self.rank, f"{prefix}/to{dest}")] = array
            self.stats.record_send(array.nbytes, tag=tag)
        self.barrier()
        for sender in range(self.world_size):
            if sender == self.rank:
                continue
            value = self._store.pop((sender, f"{prefix}/to{self.rank}"), None)
            if value is None:
                continue
            received[sender] = np.array(value, copy=True)
            self.stats.record_recv(received[sender].nbytes, tag=tag)
        return received

    def allreduce(self, array: np.ndarray, op: str = "sum", tag: str = "allreduce") -> np.ndarray:
        array = np.asarray(array)
        self._collective_counter += 1
        key = f"__coll/{self._collective_counter}"
        self._put_and_notify((self.rank, key), array)
        contributions = [self._wait_get(r, key) for r in range(self.world_size)]
        result = reduce_arrays(contributions, op).astype(array.dtype, copy=False)
        ring_bytes = int(2 * array.nbytes * (self.world_size - 1) / max(self.world_size, 1))
        self.stats.record_send(ring_bytes, tag=tag)
        self.stats.record_recv(ring_bytes, tag=tag)
        self.barrier()
        self._store.pop((self.rank, key), None)
        return result

    def allgather(self, array: np.ndarray, tag: str = "allgather") -> List[np.ndarray]:
        array = np.asarray(array)
        self._collective_counter += 1
        key = f"__coll/{self._collective_counter}"
        self._put_and_notify((self.rank, key), array)
        gathered = [np.array(self._wait_get(r, key), copy=True) for r in range(self.world_size)]
        self.barrier()
        self._store.pop((self.rank, key), None)
        return gathered


#: request kinds reserved by the worker loop itself.
_STOP_KIND = "__stop__"
_CRASH_KIND = "__crash__"
#: job id carrying each worker's startup acknowledgement.
_INIT_JOB = 0
#: how long stop() lets workers drain before escalating terminate -> kill.
_STOP_GRACE_S = 2.0


def portable(payload: Any) -> Any:
    """Make a response payload cheap and safe to ship through an mp queue.

    Queue transport pickles every payload; a non-contiguous array (a slice,
    a transpose) pickles through a private copy anyway, so taking the
    contiguous copy *here* keeps the feeder thread from doing it and makes
    the cost explicit at the call site.  Tuples/lists/dicts are walked;
    everything else is returned untouched (and must be picklable).
    """
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload)
    if isinstance(payload, tuple):
        return tuple(portable(item) for item in payload)
    if isinstance(payload, list):
        return [portable(item) for item in payload]
    if isinstance(payload, dict):
        return {key: portable(value) for key, value in payload.items()}
    return payload


def _service_worker(
    rank: int,
    world_size: int,
    store,
    barrier,
    condition,
    requests,
    responses,
    service_factory,
    timeout_s: float,
) -> None:
    """Request loop of one forked worker.

    ``service_factory(rank, comm)`` builds the worker's state (graph handles,
    stores, caches — collective construction is fine: every worker runs it
    concurrently) and returns a ``handler(kind, payload)`` callable.  The
    loop then answers ``(kind, job_id, payload)`` requests until the stop
    sentinel arrives.  A handler exception poisons the cluster before the
    error response is posted, so peers blocked in the failed job's
    collectives unblock within one wait slice instead of timing out.
    """
    comm = MultiprocessCommunicator(
        rank, world_size, store, barrier, condition, timeout_s=timeout_s
    )
    try:
        handler = service_factory(rank, comm)
    except BaseException as exc:  # noqa: BLE001 - report to parent, unblock peers
        _poison_cluster(store, barrier, condition, f"rank {rank} failed to initialize: {exc!r}")
        responses.put((rank, _INIT_JOB, "error", repr(exc)))
        return
    responses.put((rank, _INIT_JOB, "ok", None))
    while True:
        kind, job_id, payload = requests.get()
        if kind == _STOP_KIND:
            break
        if kind == _CRASH_KIND:
            # Fault injection (tests): die mid-job without posting anything,
            # exactly like a segfault between dequeue and response.
            os._exit(13)
        try:
            result = handler(kind, payload)
        except BaseException as exc:  # noqa: BLE001 - keep the loop alive
            _poison_cluster(
                store, barrier, condition, f"rank {rank} failed on job {job_id}: {exc!r}"
            )
            responses.put((rank, job_id, "error", repr(exc)))
            continue
        responses.put((rank, job_id, "ok", portable(result)))


class MultiprocessServiceCluster:
    """``world_size`` forked worker processes behind per-rank job queues.

    The one process driver of this backend: :func:`run_multiprocess` uses it
    for a single job, the ``"mp"`` serving backend for an open-ended stream
    of small ones.  Workers build their state once (``service_factory``)
    and then answer requests:

    * every worker gets its own request queue; :meth:`request` posts one
      ``(kind, payload)`` job to **all** of them and blocks until every rank
      responded (responses cross one shared queue, matched by job id);
    * while waiting, the parent polls ``Process.is_alive`` alongside the
      response queue — a worker that dies without responding fails the job
      with :class:`WorkerFailedError` naming the dead rank, after poisoning
      the cluster so surviving workers blocked in the dead job's collectives
      unblock promptly (no hang);
    * a poisoned cluster fails every later :meth:`request` immediately;
      :meth:`stop` remains the only teardown path and always reaps: stop
      sentinels first, then join, then terminate -> kill stragglers, then
      the Manager process itself — no child outlives it.

    Requires the ``fork`` start method: workers inherit the factory's
    captured state (model, shards, feature matrices) by address-space copy
    instead of pickling.  Request/response payloads *do* cross a pickling
    queue — keep them to the per-job data (seed ids, logit rows, state
    dicts).
    """

    #: workers hold forked snapshots: parent-side mutations (model weights,
    #: feature stores) must be shipped to them as request payloads.
    shared_memory = False

    def __init__(
        self,
        service_factory: Callable[[int, Communicator], Callable],
        world_size: int,
        timeout_s: float = _DEFAULT_TIMEOUT_S,
        name: str = "service",
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.name = name
        self._service_factory = service_factory
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._manager = None
        self._store = None
        self._barrier = None
        self._condition = None
        self._requests: List[Any] = []
        self._responses = None
        self._processes: List[mp.process.BaseProcess] = []
        self._job_counter = _INIT_JOB
        self._started = False
        self._stopped = False
        self._failure: Optional[str] = None

    # -- lifecycle -------------------------------------------------------- #
    def start(self) -> "MultiprocessServiceCluster":
        """Fork the workers and wait for every rank's startup ack."""
        if self._started:
            raise RuntimeError("cluster is already started")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessServiceCluster requires the 'fork' start method "
                "(workers inherit the service state by address-space copy); "
                "this platform does not support fork"
            )
        ctx = mp.get_context("fork")
        self._manager = mp.Manager()
        self._store = self._manager.dict()
        self._barrier = self._manager.Barrier(self.world_size)
        self._condition = self._manager.Condition()
        self._requests = [ctx.Queue() for _ in range(self.world_size)]
        self._responses = ctx.Queue()
        self._processes = [
            ctx.Process(
                target=_service_worker,
                args=(
                    rank,
                    self.world_size,
                    self._store,
                    self._barrier,
                    self._condition,
                    self._requests[rank],
                    self._responses,
                    self._service_factory,
                    self._timeout_s,
                ),
                name=f"{self.name}-{rank}",
                daemon=True,
            )
            for rank in range(self.world_size)
        ]
        self._started = True
        for process in self._processes:
            process.start()
        try:
            self._collect(_INIT_JOB)
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Reap every worker (graceful drain, then terminate -> kill) — idempotent."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        for process, requests in zip(self._processes, self._requests):
            if process.is_alive():
                try:
                    requests.put((_STOP_KIND, -1, None))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for process in self._processes:
            process.join(timeout=_STOP_GRACE_S)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            if process.is_alive():
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=5.0)
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    # -- introspection ---------------------------------------------------- #
    @property
    def processes(self) -> List[mp.process.BaseProcess]:
        """The worker processes, indexed by rank (for liveness checks)."""
        return list(self._processes)

    def stats(self) -> dict:
        """The per-rank process table (``stats()["processes"]`` of the mp server).

        ``failure`` is the message that poisoned the cluster, ``None`` while healthy.
        """
        return {
            "processes": {
                "alive": [p.is_alive() for p in self._processes],
                "exitcodes": [p.exitcode for p in self._processes],
                "failure": self._failure,
            }
        }

    # -- job dispatch ------------------------------------------------------ #
    def request(self, kind: str, payload: Any = None) -> List[Any]:
        """Run one job on every worker; per-rank responses indexed by rank.

        Thread-safe (jobs from concurrent callers are serialized, so every
        worker sees the same job order).  Raises :class:`WorkerFailedError`
        if any worker errors, dies before responding, or exceeds the
        cluster's timeout.
        """
        with self._lock:
            if not self._started or self._stopped:
                raise RuntimeError("cluster is not running")
            if self._failure is not None:
                raise WorkerFailedError(
                    f"cluster is poisoned by an earlier failure: {self._failure}"
                )
            self._job_counter += 1
            job_id = self._job_counter
            for requests in self._requests:
                requests.put((kind, job_id, portable(payload)))
            return self._collect(job_id)

    def inject_crash(self, rank: int) -> None:
        """Fault injection: make ``rank`` die mid-loop before its next job.

        The crash sentinel is queued in order, so a job posted *after* this
        call finds the rank already dead — the deterministic way for tests
        to exercise the mid-request failure path.
        """
        self._requests[rank].put((_CRASH_KIND, -1, None))

    def _collect(self, job_id: int) -> List[Any]:
        """Drain responses for ``job_id`` with liveness polling (see class doc)."""
        results: List[Any] = [None] * self.world_size
        reported: set = set()
        errors: List[str] = []
        deadline = time.monotonic() + self._timeout_s

        def _record(rank: int, status: str, payload: Any) -> None:
            nonlocal deadline
            reported.add(rank)
            if status == "ok":
                results[rank] = payload
            elif errors and "cluster aborted" in str(payload):
                # Follow-on failure of a survivor the poisoning unblocked;
                # the root cause is already recorded.
                pass
            else:
                errors.append(f"rank {rank}: {payload}")
                self._poison(errors[-1])
                # Survivors were just unblocked: bound how long we keep
                # waiting for them to report.
                deadline = min(deadline, time.monotonic() + _ABORT_GRACE_S)

        def _drain_one() -> bool:
            try:
                rank, jid, status, payload = self._responses.get(timeout=_POLL_S)
            except queue_mod.Empty:
                return False
            if jid == job_id:
                _record(rank, status, payload)
            # Stale responses (an aborted earlier job's stragglers) are
            # dropped: their job already raised in the parent.
            return True

        while len(reported) < self.world_size:
            if _drain_one():
                continue
            if time.monotonic() > deadline:
                if not errors:
                    missing = sorted(set(range(self.world_size)) - reported)
                    errors.append(
                        f"timed out after {self._timeout_s:.0f}s waiting for "
                        f"ranks {missing}"
                    )
                    self._poison(errors[-1])
                break
            crashed = [
                r
                for r in range(self.world_size)
                if r not in reported and not self._processes[r].is_alive()
            ]
            if not crashed:
                continue
            # A dead rank's response may still be in flight through the
            # queue feeder — drain once more before declaring it crashed.
            if _drain_one():
                continue
            for rank in crashed:
                if rank not in reported:
                    _record(
                        rank,
                        "error",
                        "worker process died without posting a response "
                        f"(exitcode {self._processes[rank].exitcode})",
                    )
        if errors:
            raise WorkerFailedError(f"{self.name} workers failed: " + "; ".join(errors))
        return results

    def _poison(self, message: str) -> None:
        if self._failure is None:
            self._failure = message
        _poison_cluster(self._store, self._barrier, self._condition, message)

    def __enter__(self) -> "MultiprocessServiceCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_multiprocess(
    worker_fn: Callable[..., Any],
    world_size: int,
    worker_args: Optional[Sequence[Any]] = None,
    timeout_s: float = _DEFAULT_TIMEOUT_S,
    **common_kwargs: Any,
) -> List[Any]:
    """Run ``worker_fn`` on ``world_size`` forked processes and collect results.

    A single-job use of :class:`MultiprocessServiceCluster`: fork, run
    ``worker_fn(rank, comm, [worker_args[rank]], **common_kwargs)`` once per
    rank, reap.  The per-worker results are returned indexed by rank.  Any
    worker error — an exception, a silent death, or a timeout — is re-raised
    in the parent as :class:`WorkerFailedError` with the failing rank
    identified, and no child process is left behind (see the module
    docstring for the exact failure semantics).
    """
    if worker_args is not None and len(worker_args) != world_size:
        raise ValueError(f"worker_args must have length {world_size}")

    def single_job(rank: int, comm: Communicator):
        args = () if worker_args is None else (worker_args[rank],)
        return lambda kind, payload: worker_fn(rank, comm, *args, **common_kwargs)

    with MultiprocessServiceCluster(
        single_job, world_size, timeout_s=timeout_s, name="multiprocess"
    ) as cluster:
        return cluster.request("run")
