"""Multiprocessing backend (true multi-process workers on one host).

The thread cluster in :mod:`repro.distributed.thread_backend` is the default
because it is fast to spin up and lets the benchmarks simulate up to 32
workers cheaply.  This module runs the same workers as *genuinely* separate
processes, matching the paper's deployment model of one training process per
machine ("repro band": multi-process on one big server).  Both drivers give
their ranks the same communicator over the same shared-memory data plane;
they differ in how workers are spawned, answered and reaped.

Usage::

    from repro.distributed.mp_backend import run_multiprocess
    run = run_multiprocess(worker_fn, world_size=2)   # a ClusterRunResult
    run.results, run.peak_memory_mb, run.total_bytes_communicated

``worker_fn`` takes the usual ``(rank, comm, *args)`` signature and returns a
picklable result.  Workers are forked (the ``fork`` start method is
required), so the function and its arguments reach them by address-space
copy.

There is one process driver, :class:`MultiprocessServiceCluster`: forked
workers answering ``(kind, payload)`` jobs until stopped.
:func:`run_multiprocess` is :func:`~repro.distributed.cluster.run_job` on it
— the helper :func:`~repro.distributed.cluster.run_distributed` runs on the
thread cluster — and the ``"mp"`` serving backend keeps one alive for the
server's lifetime.

Before forking, :meth:`MultiprocessServiceCluster.start` maps the data plane
(:mod:`repro.distributed.plane`) with the fork context's locks; the workers
inherit it.

Failure semantics
-----------------

* A worker whose job **raises** sets the shared abort flag and rings every
  rank's doorbell before posting its error, so survivors blocked in a
  collective unblock promptly (instead of waiting out their timeout) and
  post their own follow-on :class:`~repro.distributed.plane.WorkerFailedError`
  ("cluster aborted"), which the parent leaves out of its report when the
  root cause is in it.  The parent raises :class:`WorkerFailedError` naming
  the failing rank.
* A worker that **dies without posting anything** (killed, segfault,
  ``os._exit``) is detected by polling ``Process.is_alive`` alongside the
  response queue; the parent aborts the cluster the same way and raises
  naming the dead rank and its exit code.  The rank may have died *holding*
  a cross-process lock or parked on its doorbell: no wait of the plane is
  unbounded and aborting takes no lock, so neither the survivors nor the
  parent can hang on it.
* A job that exceeds the cluster's **timeout** aborts the cluster and raises
  naming the ranks still owed a response.
* On every path — success, error, crash, timeout — :meth:`~
  MultiprocessServiceCluster.stop` terminates any worker that does not exit
  within a short grace period and closes the parent's mappings: no child
  process outlives the :func:`run_multiprocess` call or the stopped cluster.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.cluster import ClusterRunResult, run_job
from repro.distributed.comm import Communicator
from repro.distributed.plane import ArenaCommunicator, SharedPlane, WorkerFailedError

_DEFAULT_TIMEOUT_S = 300.0
#: parent-side liveness-check interval while draining the result queue
_POLL_S = 0.2
#: how long survivors get to post their errors after the cluster aborts
_ABORT_GRACE_S = 10.0


#: request kinds reserved by the worker loop itself.
_STOP_KIND = "__stop__"
_CRASH_KIND = "__crash__"
#: job id carrying each worker's startup acknowledgement.
_INIT_JOB = 0
#: how long stop() lets workers drain before escalating terminate -> kill.
_STOP_GRACE_S = 2.0


def portable(payload: Any) -> Any:
    """Make a job or response payload cheap and safe to ship between processes.

    The request queues and response pipes pickle every payload; a
    non-contiguous array (a slice, a transpose) pickles through a private
    copy anyway, so taking the contiguous copy *here* — once, not once per
    rank, and not on a queue's feeder thread — makes the cost explicit at
    the call site.  Tuples/lists/dicts are walked; everything else is
    returned untouched (and must be picklable).
    """
    if isinstance(payload, np.ndarray):
        # (an already contiguous array is kept as is — ascontiguousarray
        # would also promote a 0-d array to 1-d)
        return payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
    if isinstance(payload, tuple):
        return tuple(portable(item) for item in payload)
    if isinstance(payload, list):
        return [portable(item) for item in payload]
    if isinstance(payload, dict):
        return {key: portable(value) for key, value in payload.items()}
    return payload


def _error_response(exc: BaseException) -> Tuple[str, str]:
    """``(status, message)`` of a worker call that raised: a follow-on abort or a cause."""
    return ("aborted" if isinstance(exc, WorkerFailedError) else "error"), repr(exc)


def _service_worker(
    rank: int,
    world_size: int,
    plane: SharedPlane,
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
    sentinel arrives.  A handler exception aborts the cluster before the
    error response is posted, so peers blocked in the failed job's
    collectives unblock within one wait slice instead of timing out.
    """
    comm = ArenaCommunicator(rank, world_size, plane, timeout_s=timeout_s)
    try:
        handler = service_factory(rank, comm)
    except BaseException as exc:  # noqa: BLE001 - report to parent, unblock peers
        plane.abort(f"rank {rank} failed to initialize: {exc!r}")
        responses.send((rank, _INIT_JOB, *_error_response(exc)))
        return
    responses.send((rank, _INIT_JOB, "ok", None))
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
            plane.abort(f"rank {rank} failed on job {job_id}: {exc!r}")
            responses.send((rank, job_id, *_error_response(exc)))
            continue
        responses.send((rank, job_id, "ok", portable(result)))


class MultiprocessServiceCluster:
    """``world_size`` forked worker processes behind per-rank job queues.

    The one process driver of this backend: :func:`run_multiprocess` uses it
    for a single job, the ``"mp"`` serving backend for an open-ended stream
    of small ones.  :meth:`start` maps the shared data plane
    (:class:`~repro.distributed.plane.SharedPlane`), then forks; workers build their state once
    (``service_factory``) and then answer requests:

    * every worker gets its own request queue; :meth:`request` posts one
      ``(kind, payload)`` job to **all** of them and blocks until every rank
      responded (each rank answers on a pipe of its own, written from its
      main thread and guarded by no lock — a rank cannot die holding up
      another rank's answer; responses are matched by job id);
    * while waiting, the parent polls ``Process.is_alive`` alongside the
      response queue — a worker that dies without responding fails the job
      with :class:`WorkerFailedError` naming the dead rank, after aborting
      the cluster so surviving workers blocked in the dead job's collectives
      unblock promptly (no hang);
    * a poisoned cluster fails every later :meth:`request` immediately;
      :meth:`stop` remains the only teardown path and always reaps: stop
      sentinels first, then join, then terminate -> kill stragglers, then
      the parent's mappings are closed — the workers are the only children,
      and none outlives it.

    Requires the ``fork`` start method: workers inherit the shared mappings
    and the factory's captured state (model, shards, feature matrices) by
    address-space copy instead of pickling.  Request/response payloads *do*
    cross a pickling queue — keep them to the per-job data (seed ids, logit
    rows, state dicts).
    """

    #: workers hold forked snapshots: parent-side mutations (model weights,
    #: feature stores) must be shipped to them as request payloads.
    shares_address_space = False

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
        self._plane: Optional[SharedPlane] = None
        self._requests: List[Any] = []
        self._responses: List[Any] = []
        self._processes: List[mp.process.BaseProcess] = []
        self._job_counter = _INIT_JOB
        self._started = False
        self._stopped = False
        self._failure: Optional[str] = None

    # -- lifecycle -------------------------------------------------------- #
    def start(self) -> "MultiprocessServiceCluster":
        """Map the data plane, fork the workers, wait for every rank's startup ack."""
        if self._started:
            raise RuntimeError("cluster is already started")
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessServiceCluster requires the 'fork' start method "
                "(workers inherit the data plane and the service state by "
                "address-space copy); this platform does not support fork"
            )
        ctx = mp.get_context("fork")
        self._plane = SharedPlane(ctx, self.world_size)
        self._requests = [ctx.Queue() for _ in range(self.world_size)]
        pipes = [ctx.Pipe(duplex=False) for _ in range(self.world_size)]
        self._responses = [reader for reader, _ in pipes]
        self._processes = [
            ctx.Process(
                target=_service_worker,
                args=(
                    rank,
                    self.world_size,
                    self._plane,
                    self._requests[rank],
                    pipes[rank][1],
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
        for _, writer in pipes:
            writer.close()  # the workers hold the write ends now
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
        # With the workers gone a request still in flight fails within a
        # poll; wait it out so the plane is not unmapped under its abort.
        with self._lock:
            self._plane.close()
            for reader in self._responses:
                reader.close()
            # Close the request queues now rather than at garbage collection:
            # their pipes and feeder threads sit in reference cycles.
            for requests in self._requests:
                requests.close()
                requests.join_thread()

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
            payload = portable(payload)
            for requests in self._requests:
                requests.put((kind, job_id, payload))
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
            elif errors and status == "aborted":
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
            drained = False
            for reader in mp.connection.wait(self._responses, timeout=_POLL_S):
                try:
                    rank, jid, status, payload = reader.recv()
                except EOFError:  # every holder of the write end is dead
                    continue
                drained = True
                if jid == job_id:
                    _record(rank, status, payload)
                # Stale responses (an aborted earlier job's stragglers) are
                # dropped: their job already raised in the parent.
            return drained

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
            # The rank may have answered and then exited since the last
            # drain — look once more before declaring it crashed.
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
        self._plane.abort(message)

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
) -> ClusterRunResult:
    """Run ``worker_fn`` on ``world_size`` forked processes (the twin of ``run_distributed``).

    Each rank's result, memory tracker and byte counters are pickled back
    through its response pipe; the function and its arguments reach the
    workers by fork, never pickled.  Any worker error — an exception, a
    silent death, or a timeout — is re-raised in the parent as
    :class:`WorkerFailedError` naming the failing rank, and no child process
    is left behind (see the module docstring).
    """
    return run_job(
        MultiprocessServiceCluster, worker_fn, world_size, worker_args, timeout_s, common_kwargs
    )
