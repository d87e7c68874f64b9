"""The data plane: per-rank shared-memory arenas behind the communicator.

SAR's protocol is "publish ``Z``, peers fetch the *rows* of ``Z`` they need,
free, repeat".  Both cluster drivers run it here: a driver maps one
anonymous shared region per rank (:class:`SharedPlane`) — a small
*directory* followed by a large *arena* — with its own kind of locks
(``threading``, or a ``fork`` context before forking), and gives every rank
an :class:`ArenaCommunicator` over it.  The mappings have no name: nothing
appears under ``/dev/shm``, and there is nothing to unlink, so a crash
cannot leak one.

* **What is copied when.**  ``publish`` copies the array once into the
  owner's arena and records ``key -> (offset, shape, dtype)`` in the owner's
  directory; from then on the publish is a snapshot (the owner mutating its
  source array is invisible to peers).  ``fetch(rows=...)`` indexes a
  zero-copy view of the owner's arena and copies out only the requested
  rows — the bytes :class:`~repro.distributed.comm.CommStats` records are
  the bytes that moved, booked by the receiver.  The collectives (in
  ``Communicator``) ride the same two steps.
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
  :meth:`~repro.distributed.comm.Communicator.allgather_keyed`).
* **Failure.**  Aborting sets a flag and rings every doorbell, so every
  waiting rank raises :class:`WorkerFailedError` ("cluster aborted"), the
  follow-on type both drivers leave out when they report a job's root
  cause.  Every lock acquire and sleep is a slice of at most
  ``_WAIT_SLICE_S`` followed by a look at the flag, and aborting takes no
  lock, so a rank that died holding a lock cannot hang its peers.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import struct
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.distributed.comm import STREAM_KEY_PREFIX, Communicator

#: longest single sleep or lock wait of a worker before it re-reads the abort flag
_WAIT_SLICE_S = 0.1

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
    """A worker raised, died or timed out, or the cluster was aborted because one did."""


def _arena_capacity(world_size: int) -> int:
    """Virtual bytes of one rank's arena: half of physical memory, split evenly.

    Only pages a publish actually touches become resident, so the rule is
    generous on purpose: it bounds a runaway publisher, not a working set.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return physical // (2 * world_size) // mmap.PAGESIZE * mmap.PAGESIZE


class SharedPlane:
    """What the workers of one cluster share.

    * ``arenas[r]`` — rank ``r``'s directory (first ``_DIRECTORY_BYTES``) and
      arena, written only by rank ``r`` under ``directory_locks[r]``;
    * ``doorbells[r]`` — a semaphore rank ``r``'s threads sleep on while a
      key or the barrier is not ready; whoever changes shared state rings it
      once per thread parked there (``words[_PARKED + r]``);
    * ``words`` — the control region: abort flag, barrier state (under
      ``control_lock``) and the parked counts.

    ``sync`` makes the locks and semaphores: the ``threading`` module for
    threads of one process, a ``fork`` context for processes.  Nothing here
    is ever *held* across a blocking call, and :meth:`abort` takes no lock at
    all, so a process dying at any point leaves at worst a lock nobody will
    release — which every sliced acquire survives.
    """

    def __init__(self, sync, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.capacity = _arena_capacity(world_size)
        self.arenas = [mmap.mmap(-1, _DIRECTORY_BYTES + self.capacity) for _ in range(world_size)]
        self.directory_locks = [sync.Lock() for _ in range(world_size)]
        self.doorbells = [sync.Semaphore(0) for _ in range(world_size)]
        self.control_lock = sync.Lock()
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
        """Unmap everything; raises :class:`BufferError` while a view of an arena is alive."""
        self.words.release()
        self._control.close()
        for arena in self.arenas:
            arena.close()


#: one directory entry: arena offset, bytes reserved, shape, dtype string
_Entry = Tuple[int, int, Tuple[int, ...], str]


class ArenaCommunicator(Communicator):
    """The :class:`Communicator` primitives over the cluster's :class:`SharedPlane`.

    ``_publish`` copies a batch into this rank's arena and rewrites this
    rank's directory once; ``_read`` looks a key up in its owner's directory
    and returns a read-only view of the owner's arena; ``_rendezvous`` is a
    generation-counting barrier in the control region.  Only this rank writes
    its arena and directory, and a fetch is booked by the receiver alone.

    Safe for the worker's own side threads (SAR prefetch, background
    sampler, loader-stage KV fetches) next to the main thread: this rank's
    directory lock serializes its publishes, and each parked thread counts
    itself in so a wake-up reaches all of them.
    """

    def __init__(self, rank: int, world_size: int, plane: SharedPlane, timeout_s: float):
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
        """Hold a shared lock; a peer process can die holding it, so the acquire is sliced."""
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
