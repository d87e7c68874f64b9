"""Multiprocessing backend (true multi-process workers on one host).

The thread backend in :mod:`repro.distributed.thread_backend` is the default
because it is fast to spin up and lets the benchmarks simulate up to 32
workers cheaply.  This module provides the *genuinely* multi-process
backend, matching the paper's deployment model of one training process per
machine ("repro band": multi-process on one big server): the SAR algorithms
only rely on :class:`~repro.distributed.comm.Communicator`, whose operations
are written once over five primitives, and here those primitives run over
memory the worker processes share.

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

The data plane
--------------

SAR's protocol is "publish ``Z``, peers fetch the *rows* of ``Z`` they need,
free, repeat".  Before forking, the cluster maps one anonymous shared region
per rank (:class:`_SharedPlane`): a small *directory* followed by a large
*arena*.  The mappings have no name — children inherit them through the
fork, nothing appears under ``/dev/shm``, and there is nothing to unlink, so
a crash cannot leak one.

* **What is copied when.**  ``publish`` copies the array once into the
  owner's arena and records ``key -> (offset, shape, dtype)`` in the owner's
  directory; from then on the publish is a snapshot (the owner mutating its
  source array is invisible to peers).  ``fetch(rows=...)`` indexes a
  zero-copy view of the owner's arena and copies out only the requested
  rows — the bytes :class:`~repro.distributed.comm.CommStats` records are
  the bytes that moved.  The collectives (in ``Communicator``) ride the same
  two steps.
* **Who may write what.**  Only the owning rank ever writes its arena or its
  directory (peers map both, and read the arena through read-only views); a
  rank mutates nothing it does not own — ``exchange`` slots included, which
  the *sender* reclaims after its next barrier.  A directory carries a
  sequence number, so a reader re-reads it only when it changed.
* **Space.**  The owner allocates first-fit over its live blocks, so freed
  space is reused and an arena stays at its live-set size however long the
  run.  The arena's *virtual* size comes from the machine
  (:func:`_arena_capacity`: a share of physical memory per rank; pages are
  touched lazily, so an idle arena costs nothing); exhausting it raises a
  :class:`MemoryError` naming rank, key, live bytes and capacity.
* **Unpublish discipline.**  A block may be reused as soon as its key is
  unpublished, so a key must only be unpublished once its readers are done
  (after a barrier, or by the keyed-stream discipline of
  :meth:`~repro.distributed.comm.Communicator.allgather_keyed`) — the rule
  every caller already follows; the thread backend merely forgives a late
  reader because it still holds the array by reference.

Failure semantics
-----------------

* A worker whose job **raises** sets the shared abort flag and rings every
  rank's doorbell before posting its error, so survivors blocked in a
  collective unblock promptly (instead of waiting out their timeout) and
  post their own errors.  The parent raises :class:`WorkerFailedError`
  naming the failing rank.
* A worker that **dies without posting anything** (killed, segfault,
  ``os._exit``) is detected by polling ``Process.is_alive`` alongside the
  response queue; the parent aborts the cluster the same way and raises
  naming the dead rank and its exit code.  The rank may have died *holding*
  a cross-process lock or parked on its doorbell: no wait in this module is
  unbounded — every lock acquire and every sleep is a slice of at most
  ``_WAIT_SLICE_S`` followed by a look at the abort flag — and aborting
  takes no lock, so neither the survivors nor the parent can hang on it.
* A job that exceeds the cluster's **timeout** aborts the cluster and raises
  naming the ranks still owed a response.
* On every path — success, error, crash, timeout — :meth:`~
  MultiprocessServiceCluster.stop` terminates any worker that does not exit
  within a short grace period and closes the parent's mappings: no child
  process outlives the :func:`run_multiprocess` call or the stopped cluster.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing as mp
import multiprocessing.connection
import os
import pickle
import struct
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.cluster import ClusterRunResult, run_job
from repro.distributed.comm import STREAM_KEY_PREFIX, Communicator

_DEFAULT_TIMEOUT_S = 300.0
#: parent-side liveness-check interval while draining the result queue
_POLL_S = 0.2
#: longest single sleep or lock wait of a worker before it re-reads the abort flag
_WAIT_SLICE_S = 0.1
#: how long survivors get to post their errors after the cluster aborts
_ABORT_GRACE_S = 10.0

#: published blocks start on cache-line boundaries
_ALIGN = 64
#: bytes at the head of each rank's mapping reserved for its directory
_DIRECTORY_BYTES = 1 << 20
#: directory header: sequence number, length of the pickled directory after it
_HEADER = struct.Struct("qq")
#: words of the control region (then one parked-thread count per rank)
_ABORTED, _ABORT_LENGTH, _ARRIVED, _GENERATION, _PARKED = range(5)
#: bytes kept of the abort message
_ABORT_BYTES = 1024


class WorkerFailedError(RuntimeError):
    """One or more worker processes raised, died, or timed out."""


def _arena_capacity(world_size: int) -> int:
    """Virtual bytes of one rank's arena: half of physical memory, split evenly.

    Only pages a publish actually touches become resident, so the rule is
    generous on purpose: it bounds a runaway publisher, not a working set.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return physical // (2 * world_size) // mmap.PAGESIZE * mmap.PAGESIZE


class _SharedPlane:
    """What the workers of one cluster share, mapped before the fork.

    * ``arenas[r]`` — rank ``r``'s directory (first ``_DIRECTORY_BYTES``) and
      arena, written only by rank ``r`` under ``directory_locks[r]``;
    * ``doorbells[r]`` — a semaphore rank ``r``'s threads sleep on while a
      key or the barrier is not ready; whoever changes shared state rings it
      once per thread parked there (``words[_PARKED + r]``);
    * ``words`` — the control region: abort flag, barrier state (under
      ``control_lock``) and the parked counts.

    Nothing here is ever *held* across a blocking call, and :meth:`abort`
    takes no lock at all, so a process dying at any point leaves at worst a
    lock nobody will release — which every sliced acquire survives.
    """

    def __init__(self, ctx, world_size: int):
        self.capacity = _arena_capacity(world_size)
        self.arenas = [mmap.mmap(-1, _DIRECTORY_BYTES + self.capacity) for _ in range(world_size)]
        self.directory_locks = [ctx.Lock() for _ in range(world_size)]
        self.doorbells = [ctx.Semaphore(0) for _ in range(world_size)]
        self.control_lock = ctx.Lock()
        self._message_at = 8 * (_PARKED + world_size)
        self._control = mmap.mmap(-1, self._message_at + _ABORT_BYTES)
        self.words = memoryview(self._control).cast("q")

    def wake(self) -> None:
        """Ring every rank's doorbell once per thread it has parked."""
        for rank, bell in enumerate(self.doorbells):
            for _ in range(self.words[_PARKED + rank]):
                bell.release()

    def abort(self, message: str) -> None:
        """Flag the cluster as aborted (first message wins) and wake every sleeper."""
        if not self.words[_ABORTED]:
            data = message.encode("utf-8", "replace")[:_ABORT_BYTES]
            self._control[self._message_at : self._message_at + len(data)] = data
            self.words[_ABORT_LENGTH] = len(data)
            self.words[_ABORTED] = 1
        self.wake()

    def abort_message(self) -> Optional[str]:
        """The message the cluster was aborted with, ``None`` while healthy."""
        if not self.words[_ABORTED]:
            return None
        end = self._message_at + self.words[_ABORT_LENGTH]
        return self._control[self._message_at : end].decode("utf-8", "replace")

    def close(self) -> None:
        """Unmap everything (parent side, after the workers are reaped)."""
        self.words.release()
        self._control.close()
        for arena in self.arenas:
            arena.close()


#: one directory entry: arena offset, bytes reserved, shape, dtype string
_Entry = Tuple[int, int, Tuple[int, ...], str]


class MultiprocessCommunicator(Communicator):
    """The :class:`Communicator` primitives over the cluster's :class:`_SharedPlane`.

    ``_publish`` copies a batch into this rank's arena and rewrites this
    rank's directory once; ``_read`` looks a key up in its owner's directory
    and returns a read-only view of the owner's arena; ``_rendezvous`` is a
    generation-counting barrier in the control region.  Only this rank writes
    its arena and directory.  A fetch is booked by the receiver alone: a
    process cannot reach its peer's counters.

    Safe for the worker's own side threads (SAR prefetch, background
    sampler, loader-stage KV fetches) next to the main thread: this rank's
    directory lock serializes its publishes, and each parked thread counts
    itself in so a wake-up reaches all of them.
    """

    def __init__(
        self, rank: int, world_size: int, plane: _SharedPlane, timeout_s: float = _DEFAULT_TIMEOUT_S
    ):
        super().__init__(rank, world_size)
        self._plane = plane
        self._timeout_s = timeout_s
        self._arena = plane.arenas[rank]
        self._entries: Dict[str, _Entry] = {}
        self._sequence = 0
        self._high_water = 0
        #: per peer, the last directory read: (sequence number, entries)
        self._directories: List[Tuple[int, Dict[str, _Entry]]] = [(0, {})] * world_size
        self._parked_mutex = threading.Lock()

    # -- waiting ---------------------------------------------------------- #
    def _check_abort(self) -> None:
        message = self._plane.abort_message()
        if message is not None:
            raise WorkerFailedError(f"rank {self.rank}: cluster aborted: {message}")

    @contextlib.contextmanager
    def _held(self, lock) -> Iterator[None]:
        """Hold a cross-process lock; a peer can die holding it, so the acquire is sliced."""
        deadline = time.monotonic() + self._timeout_s
        while not lock.acquire(timeout=_WAIT_SLICE_S):
            self._check_abort()
            if time.monotonic() >= deadline:
                raise TimeoutError(f"rank {self.rank} timed out acquiring a shared lock")
        try:
            yield
        finally:
            lock.release()

    def _park(self, delta: int) -> None:
        with self._parked_mutex:
            self._plane.words[_PARKED + self.rank] += delta

    def _wait(self, lock, probe: Callable[[], Any], what: str) -> Any:
        """Sleep on this rank's doorbell until ``probe()`` (run under ``lock``) is not ``None``.

        The thread counts itself as parked under the same lock the state it
        waits for changes under, so a writer either is seen by the probe or
        sees the count and rings; a missed ring costs one slice, never a hang.
        """
        deadline = time.monotonic() + self._timeout_s
        while True:
            with self._held(lock):
                found = probe()
                if found is None:
                    self._park(+1)
            if found is not None:
                return found
            try:
                self._plane.doorbells[self.rank].acquire(timeout=_WAIT_SLICE_S)
            finally:
                self._park(-1)
            self._check_abort()
            if time.monotonic() >= deadline:
                raise TimeoutError(f"rank {self.rank} timed out waiting for {what}")

    # -- this rank's directory and arena ----------------------------------- #
    def _allocate(self, key: str, nbytes: int) -> Tuple[int, int]:
        """First-fit ``(offset, reserved)`` for ``nbytes`` among the live blocks."""
        reserved = max(_ALIGN, -(-nbytes // _ALIGN) * _ALIGN)
        offset = 0
        for start, size in sorted(entry[:2] for entry in self._entries.values()):
            if start - offset >= reserved:
                break
            offset = start + size
        if offset + reserved > self._plane.capacity:
            raise MemoryError(
                f"rank {self.rank}: cannot publish {key!r} ({nbytes} bytes): the arena holds "
                f"{self.arena_stats()['live_bytes']} live bytes of {self._plane.capacity}"
            )
        self._high_water = max(self._high_water, offset + reserved)
        return offset, reserved

    def _publish(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy one batch into this rank's arena (one directory write), then wake readers."""
        with self._held(self._plane.directory_locks[self.rank]):
            for key, array in arrays.items():
                if array.dtype.hasobject:
                    raise TypeError(f"cannot publish {key!r}: object arrays have no shared form")
                self._entries.pop(key, None)
                offset, reserved = self._allocate(key, array.nbytes)
                np.ndarray(
                    array.shape, array.dtype, buffer=self._arena, offset=_DIRECTORY_BYTES + offset
                )[...] = array
                self._entries[key] = (offset, reserved, array.shape, array.dtype.str)
            self._commit()
        self._plane.wake()

    def _drop(self, keys: Iterable[str]) -> None:
        with self._held(self._plane.directory_locks[self.rank]):
            if sum(self._entries.pop(key, None) is not None for key in keys):
                self._commit()

    def _commit(self) -> None:
        """Write ``_entries`` out as this rank's directory (call under its directory lock)."""
        payload = pickle.dumps(self._entries, protocol=pickle.HIGHEST_PROTOCOL)
        if _HEADER.size + len(payload) > _DIRECTORY_BYTES:
            raise MemoryError(
                f"rank {self.rank}: directory of {len(self._entries)} keys exceeds "
                f"{_DIRECTORY_BYTES} bytes"
            )
        self._sequence += 1
        self._arena[_HEADER.size : _HEADER.size + len(payload)] = payload
        _HEADER.pack_into(self._arena, 0, self._sequence, len(payload))

    def arena_stats(self) -> Dict[str, int]:
        """Bytes of this rank's arena in use: live, live outside stream keys, peak, capacity."""
        entries = list(self._entries.items())
        return {
            "live_bytes": sum(entry[1] for _, entry in entries),
            "transient_bytes": sum(
                entry[1] for key, entry in entries if not key.startswith(STREAM_KEY_PREFIX)
            ),
            "high_water_bytes": self._high_water,
            "capacity_bytes": self._plane.capacity,
        }

    # -- reading any rank's directory and arena ----------------------------- #
    def _lookup(self, owner_rank: int, key: str) -> Optional[_Entry]:
        """``owner_rank``'s entry for ``key`` (call under its directory lock)."""
        if owner_rank == self.rank:
            return self._entries.get(key)
        arena = self._plane.arenas[owner_rank]
        sequence, length = _HEADER.unpack_from(arena, 0)
        cached = self._directories[owner_rank]
        if cached[0] != sequence:
            entries = pickle.loads(arena[_HEADER.size : _HEADER.size + length])
            cached = self._directories[owner_rank] = (sequence, entries)
        return cached[1].get(key)

    def _read(self, owner_rank: int, key: str, block: bool = True) -> Optional[np.ndarray]:
        """Read-only zero-copy view of a published array in ``owner_rank``'s arena."""
        lock = self._plane.directory_locks[owner_rank]
        if block:
            entry = self._wait(
                lock, lambda: self._lookup(owner_rank, key), f"rank {owner_rank} key {key!r}"
            )
        else:
            with self._held(lock):
                entry = self._lookup(owner_rank, key)
            if entry is None:
                return None
        offset, _, shape, dtype = entry
        arena = self._plane.arenas[owner_rank]
        view = np.ndarray(shape, np.dtype(dtype), buffer=arena, offset=_DIRECTORY_BYTES + offset)
        view.flags.writeable = False
        return view

    def _keys(self) -> List[str]:
        return list(self._entries)

    def _rendezvous(self) -> None:
        words = self._plane.words
        with self._held(self._plane.control_lock):
            generation = words[_GENERATION]
            words[_ARRIVED] += 1
            last = words[_ARRIVED] == self.world_size
            if last:
                words[_ARRIVED] = 0
                words[_GENERATION] = generation + 1
        if last:
            self._plane.wake()
            return
        try:
            self._wait(
                self._plane.control_lock,
                lambda: True if words[_GENERATION] != generation else None,
                "the barrier",
            )
        except TimeoutError as exc:
            raise WorkerFailedError(
                f"rank {self.rank}: barrier timed out (a worker is stuck or "
                f"exceeded the {self._timeout_s:.0f}s timeout)"
            ) from exc


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


def _service_worker(
    rank: int,
    world_size: int,
    plane: _SharedPlane,
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
    comm = MultiprocessCommunicator(rank, world_size, plane, timeout_s=timeout_s)
    try:
        handler = service_factory(rank, comm)
    except BaseException as exc:  # noqa: BLE001 - report to parent, unblock peers
        plane.abort(f"rank {rank} failed to initialize: {exc!r}")
        responses.send((rank, _INIT_JOB, "error", repr(exc)))
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
            responses.send((rank, job_id, "error", repr(exc)))
            continue
        responses.send((rank, job_id, "ok", portable(result)))


class MultiprocessServiceCluster:
    """``world_size`` forked worker processes behind per-rank job queues.

    The one process driver of this backend: :func:`run_multiprocess` uses it
    for a single job, the ``"mp"`` serving backend for an open-ended stream
    of small ones.  :meth:`start` maps the shared data plane
    (:class:`_SharedPlane`), then forks; workers build their state once
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
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.name = name
        self._service_factory = service_factory
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._plane: Optional[_SharedPlane] = None
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
        self._plane = _SharedPlane(ctx, self.world_size)
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
