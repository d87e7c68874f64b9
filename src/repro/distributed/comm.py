"""The communicator: one surface, one copy of every operation, byte accounting.

The paper's system communicates through ``torch.distributed`` backed by
Intel's oneCCL over InfiniBand.  The algorithms only need a small set of
operations, which :class:`Communicator` provides:

* ``publish`` / ``fetch`` — a worker makes one of its tensors remotely
  readable; peers fetch (a row subset of) it.  This models the halo exchange
  of both vanilla domain-parallel training and SAR (Algorithm 1 line
  "Fetch Z_{q→p}"), including SAR's *re*-fetch during the backward pass for
  case-2 aggregators.
* ``exchange`` — an all-to-all-v used in Algorithm 2 to send the error
  tensors ``E_{p→q}`` to their owners and collect the errors for the local
  partition.
* ``allreduce`` / ``allgather`` / ``barrier`` — parameter-gradient
  synchronization, distributed batch norm statistics, and global metrics.

All of them are written here, once, over five primitives that
:class:`~repro.distributed.plane.ArenaCommunicator` implements over the
shared-memory data plane both cluster drivers map (threads of one process
and forked processes alike).  Every byte moved is recorded in
:class:`CommStats`, per direction and per tag, and a cluster run's
:class:`~repro.distributed.cluster.ClusterRunResult` sums them over ranks.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

#: Key prefix of the keyed-stream publishes behind
#: :meth:`Communicator.allgather_keyed`.  Keys under it are exempt
#: from :meth:`Communicator.clear_published`, so an iteration boundary
#: (``DistributedGraph.begin_step``) can never delete a stream payload a
#: background sampler has published but a peer has not consumed yet.  Stream
#: keys are reclaimed explicitly via :meth:`Communicator.release_keyed`.
STREAM_KEY_PREFIX = "__stream/"

#: Byte-accounting tags of the distributed serving path
#: (:class:`repro.serving.ShardWorker`): activation rows fetched from the
#: peer that owns them, and the per-level frontier allgathers of the
#: cooperative receptive-field walk.
SERVE_HALO_TAG = "serve_halo"
SERVE_FRONTIER_TAG = "serve_frontier"


@dataclass
class CommStats:
    """Per-worker communication counters (bytes and message counts).

    Counters are updated from a worker's side threads (SAR prefetch,
    background sampler) as well as its main thread, so updates are
    lock-protected.  Byte volumes are broken down per direction by a
    caller-supplied tag (e.g. "forward_halo", "backward_refetch",
    "backward_error", "grad_sync") in :attr:`sent_by_tag` /
    :attr:`received_by_tag`.  A fetch is booked by the worker that reads,
    as received, never on the owner's counters; the collectives book each
    side.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    #: bytes this worker sent, broken down by tag
    sent_by_tag: Dict[str, int] = field(default_factory=dict)
    #: bytes this worker received, broken down by tag
    received_by_tag: Dict[str, int] = field(default_factory=dict)
    #: feature-store hot-row cache: remote rows served locally / fetched
    cache_hit_rows: int = 0
    cache_miss_rows: int = 0
    #: bytes that never crossed the wire because the cache held the rows
    cache_hit_bytes: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # A lock cannot cross a process boundary; the copy gets its own.
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    def record_send(self, nbytes: int, tag: str = "other") -> None:
        with self._lock:
            self.bytes_sent += int(nbytes)
            self.messages_sent += 1
            self.sent_by_tag[tag] = self.sent_by_tag.get(tag, 0) + int(nbytes)

    def record_recv(self, nbytes: int, tag: str = "other") -> None:
        with self._lock:
            self.bytes_received += int(nbytes)
            self.messages_received += 1
            self.received_by_tag[tag] = self.received_by_tag.get(tag, 0) + int(nbytes)

    def record_cache(self, hit_rows: int, miss_rows: int, hit_bytes: int) -> None:
        """Account one feature-store cache probe (hot-row halo cache)."""
        with self._lock:
            self.cache_hit_rows += int(hit_rows)
            self.cache_miss_rows += int(miss_rows)
            self.cache_hit_bytes += int(hit_bytes)

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def snapshot(self) -> Dict[str, int]:
        # Counters are written from the worker's side threads (the prefetch
        # thread, a background sampler), so a consistent snapshot must hold
        # the same lock as the writers.
        with self._lock:
            out = {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "messages_sent": self.messages_sent,
                "messages_received": self.messages_received,
            }
            if self.cache_hit_rows or self.cache_miss_rows:
                out["cache_hit_rows"] = self.cache_hit_rows
                out["cache_miss_rows"] = self.cache_miss_rows
                out["cache_hit_bytes"] = self.cache_hit_bytes
            out.update({f"sent:{k}": v for k, v in sorted(self.sent_by_tag.items())})
            out.update({f"recv:{k}": v for k, v in sorted(self.received_by_tag.items())})
        return out

    def serving_snapshot(self) -> Dict[str, int]:
        """Serving-path telemetry: halo/frontier bytes and cache rows.

        The fixed-key subset of :meth:`snapshot` the serving ``stats()``
        surface exposes per worker — halo-fetch volume (activation rows
        fetched from the peers that own them; a fetch is booked by its
        reader alone, so there is no sent side), frontier allgather volume
        from the cooperative receptive-field walk, and the
        feature-store hot-row cache counters.  Keys are always present so
        the shape is stable for dashboards and tests.
        """
        with self._lock:
            return {
                "halo_bytes_received": self.received_by_tag.get(SERVE_HALO_TAG, 0),
                "frontier_bytes_sent": self.sent_by_tag.get(SERVE_FRONTIER_TAG, 0),
                "frontier_bytes_received": self.received_by_tag.get(SERVE_FRONTIER_TAG, 0),
                "cache_hit_rows": self.cache_hit_rows,
                "cache_miss_rows": self.cache_miss_rows,
                "cache_hit_bytes": self.cache_hit_bytes,
            }


class Communicator(abc.ABC):
    """The communication surface SAR / domain-parallel code is written against.

    Every public operation is written here, once, on top of five primitives a
    backend implements (:meth:`_publish`, :meth:`_drop`, :meth:`_keys`,
    :meth:`_read`, :meth:`_rendezvous`), so how a collective is built and
    which bytes it books cannot differ between backends.

    The barrier collectives (``barrier`` / ``exchange`` / ``allreduce`` /
    ``allgather``) belong to the one thread per rank that runs them in
    lockstep with the other ranks: they name their keys by a per-rank call
    counter that only advances identically everywhere under that rule.
    ``publish`` / ``fetch`` / ``unpublish`` and the keyed allgather are safe
    from a worker's side threads as well.
    """

    def __init__(self, rank: int, world_size: int):
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world_size {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.stats = CommStats()
        #: collectives this rank has started; names a call's keys, so a slow
        #: reader of one call can never collide with the next call's entries
        self._calls = 0
        #: collective keys whose readers are done once this rank passes its next barrier
        self._spent: List[str] = []

    # -- what a backend implements ---------------------------------------- #
    @abc.abstractmethod
    def _publish(self, arrays: Dict[str, np.ndarray]) -> None:
        """Make every ``arrays[key]`` readable by all ranks under ``key``, as one batch."""

    @abc.abstractmethod
    def _drop(self, keys: Iterable[str]) -> None:
        """Withdraw this rank's published ``keys`` (absent keys are ignored)."""

    @abc.abstractmethod
    def _read(self, owner_rank: int, key: str, block: bool = True) -> Optional[np.ndarray]:
        """``owner_rank``'s published array itself — no copy, nothing accounted.

        Blocks until the key is published; with ``block=False`` returns
        ``None`` when it is not.  The result is the backend's own storage:
        callers copy what they keep and never write to it.
        """

    @abc.abstractmethod
    def _keys(self) -> List[str]:
        """The keys this rank has published at the moment."""

    @abc.abstractmethod
    def _rendezvous(self) -> None:
        """Return once every rank has called it."""

    # -- point-to-point ------------------------------------------------- #
    def publish(self, key: str, array: np.ndarray) -> np.ndarray:
        """Make ``array`` readable by other workers under ``key``.

        The rows are copied once into this worker's arena: the publish is a
        snapshot, and later writes to ``array`` are invisible to peers.
        Returns the array peers read, a read-only view of that copy.  An
        owner that keeps the returned array rather than its own holds one
        copy of the rows, not two; it must drop it once it unpublishes the
        key (the block may then hold the next publish).  The copy is local,
        not communication: only fetches are accounted.
        """
        self._publish({key: np.asarray(array)})
        return self._read(self.rank, key, block=False)

    def fetch(
        self, owner_rank: int, key: str, rows: Optional[np.ndarray] = None, tag: str = "halo"
    ) -> np.ndarray:
        """Blocking read of (a row subset of) a remote published array.

        Returns a fresh copy owned by the calling worker, so the fetched
        halo counts towards the caller's memory while it stays alive.  The
        bytes copied are booked as received by the caller (a read of this
        rank's own publish is not communication).
        """
        array = self._read(owner_rank, key)
        if rows is None:
            out = np.array(array, copy=True)
        else:
            out = array[np.asarray(rows)]
            if not out.flags.owndata:  # basic indexing returned a view of the publish
                out = np.array(out, copy=True)
        if owner_rank != self.rank:
            self.stats.record_recv(out.nbytes, tag=tag)
        return out

    def unpublish(self, key: str) -> None:
        """Remove one of this worker's published arrays."""
        self._drop([key])

    def clear_published(self) -> None:
        """Remove all of this worker's published arrays (end of iteration).

        Keys under :data:`STREAM_KEY_PREFIX` survive; they are reclaimed via
        :meth:`release_keyed`.
        """
        self._drop([key for key in self._keys() if not key.startswith(STREAM_KEY_PREFIX)])

    # -- collectives ----------------------------------------------------- #
    def barrier(self) -> None:
        """Wait until every worker reaches this point.

        Every rank having arrived means every reader of the collective keys
        this rank had marked spent is done, so they are reclaimed here — by
        their owner, the only rank that ever withdraws a key.
        """
        spent, self._spent = self._spent, []
        self._rendezvous()
        if spent:
            self._drop(spent)

    def exchange(
        self, key: str, outgoing: Dict[int, np.ndarray], tag: str = "exchange"
    ) -> Dict[int, np.ndarray]:
        """All-to-all-v: send ``outgoing[q]`` to rank ``q``; receive from every rank.

        Ranks absent from ``outgoing`` receive nothing from this worker; the
        result only contains ranks that actually sent something.  One batch
        publish of this rank's slots, one barrier, one copy per sender; the
        slots stay published until this rank's *next* barrier, by when every
        peer has finished this call.  Self-delivery is a copy and moves no
        bytes.
        """
        self._calls += 1
        prefix = f"__coll/{self._calls}/{key}"
        slots: Dict[str, np.ndarray] = {}
        for dest, array in outgoing.items():
            if not 0 <= dest < self.world_size:
                raise ValueError(f"exchange destination {dest} out of range")
            if dest != self.rank:
                slots[f"{prefix}/to{dest}"] = array = np.asarray(array)
                self.stats.record_send(array.nbytes, tag=tag)
        if slots:
            self._publish(slots)
        self.barrier()
        self._spent.extend(slots)
        received: Dict[int, np.ndarray] = {}
        for sender in range(self.world_size):
            if sender == self.rank:
                array = outgoing.get(sender)
            else:
                array = self._read(sender, f"{prefix}/to{self.rank}", block=False)
                if array is not None:
                    self.stats.record_recv(array.nbytes, tag=tag)
            if array is not None:
                received[sender] = np.array(array, copy=True)
        return received

    def _contribute(self, array: np.ndarray) -> List[np.ndarray]:
        """Publish this rank's part of a collective; every rank's part, uncopied, by rank.

        The caller's closing :meth:`barrier` reclaims the publish.
        """
        self._calls += 1
        key = f"__coll/{self._calls}"
        self._publish({key: array})
        self._spent.append(key)
        return [array if r == self.rank else self._read(r, key) for r in range(self.world_size)]

    def allreduce(self, array: np.ndarray, op: str = "sum", tag: str = "allreduce") -> np.ndarray:
        """Elementwise reduction across all workers (op: "sum", "max", "min", "mean")."""
        array = np.asarray(array)
        result = reduce_arrays(self._contribute(array), op).astype(array.dtype, copy=False)
        # Ring-allreduce volume: each worker sends/receives ~2·(N-1)/N of the payload.
        ring_bytes = int(2 * array.nbytes * (self.world_size - 1) / self.world_size)
        self.stats.record_send(ring_bytes, tag=tag)
        self.stats.record_recv(ring_bytes, tag=tag)
        self.barrier()
        return result

    def allgather(self, array: np.ndarray, tag: str = "allgather") -> List[np.ndarray]:
        """Gather one array from every worker (indexed by rank)."""
        array = np.asarray(array)
        gathered = [np.array(part, copy=True) for part in self._contribute(array)]
        for r, part in enumerate(gathered):
            if r != self.rank:
                self.stats.record_recv(part.nbytes, tag=tag)
                self.stats.record_send(array.nbytes, tag=tag)
        self.barrier()
        return gathered

    # -- keyed (barrier-free) collectives --------------------------------- #
    def allgather_keyed(
        self, key: str, array: np.ndarray, tag: str = "allgather"
    ) -> List[np.ndarray]:
        """Allgather under an explicit caller-chosen key, without a barrier.

        The plain :meth:`allgather` orders concurrent calls with a private
        per-worker counter and a shared barrier, so it is only safe from the
        one thread that runs every collective in lockstep.  This variant
        instead *names* the collective: every rank publishes its payload
        under ``key`` (prefixed by :data:`STREAM_KEY_PREFIX`) and blockingly
        fetches every peer's payload under the same key.  As long as all
        ranks derive identical key sequences — the samplers namespace theirs
        by ``(epoch, batch, layer)``, the same discipline ``begin_step``
        uses for step keys — calls need no global ordering and may run from
        a background thread concurrently with the main thread's barrier
        collectives.

        The payload stays published (exempt from :meth:`clear_published`)
        until :meth:`release_keyed`; see
        :class:`repro.sample.distributed.DistributedNeighborSampler` for the
        release discipline that makes reclamation safe without acknowledgement
        messages.
        """
        array = np.asarray(array)
        name = STREAM_KEY_PREFIX + key
        self.publish(name, array)
        return [
            array if rank == self.rank else self.fetch(rank, name, tag=tag)
            for rank in range(self.world_size)
        ]

    def release_keyed(self, key: str) -> None:
        """Reclaim this worker's payload of a completed keyed allgather."""
        self.unpublish(STREAM_KEY_PREFIX + key)

    # -- helpers ---------------------------------------------------------- #
    def allreduce_scalar(self, value: float, op: str = "sum") -> float:
        """Convenience wrapper reducing a single Python float."""
        out = self.allreduce(np.asarray([value], dtype=np.float64), op=op)
        return float(out[0])


def reduce_arrays(arrays: List[np.ndarray], op: str) -> np.ndarray:
    """The reduction behind :meth:`Communicator.allreduce`."""
    stacked = np.stack(arrays, axis=0)
    if op == "sum":
        return stacked.sum(axis=0)
    if op == "mean":
        return stacked.mean(axis=0)
    if op == "max":
        return stacked.max(axis=0)
    if op == "min":
        return stacked.min(axis=0)
    raise ValueError(f"Unknown reduction op {op!r}")
