"""The serving frontend: one micro-batching ``Server`` over an ``Executor``.

:class:`Server` is the whole client-facing half of the serving subsystem: a
process-resident object answering ``predict(node_ids)`` from any number of
concurrent client threads.  It owns everything that is the same for every
deployment — the bounded request queue, the coalescing window, request and
update futures, lifecycle, the serving version counter and the shared
``stats()`` shape — and delegates the one thing that differs, *how a
deduplicated seed set becomes logit rows*, to an :class:`Executor`:

* :class:`repro.serving.LocalExecutor` — the whole graph in this process;
* :class:`repro.serving.ShardExecutor` — partition shards, one
  :class:`repro.serving.ShardWorker` each, on worker threads
  (``backend="distributed"``) or forked processes (``backend="mp"``).

**Micro-batching.**  Requests land in a bounded inbox consumed by one serve
thread: a deque under one lock that also counts the accepted requests
(``stats()["requests"]``, counted at admission) and the queued seeds.  The
serve thread wakes for the first request of a batch and then sleeps until the
batch can close — ``max_batch_seeds`` requested seeds are queued, an update or
stop is queued behind them, or ``window_ms`` has passed — so a burst wakes it
once per batch, not once per request.  It drains the whole batch in one lock
hold (the request that reaches ``max_batch_seeds`` included); the coalesced
requests are deduplicated into one ascending seed set, computed once by the
executor, and the batch's rows are gathered once and each request's future
gets a copy of its slice.  ``window_ms=0`` disables coalescing (strictly one
request per execution).

**Updates are barriers.**  :meth:`Server.update` enqueues the mutation
behind the requests already queued; the serve thread closes the batch it is
coalescing, runs it on the old weights, then lets the executor apply the
mutation and invalidate its caches.  Requests enqueued before the update see
the old weights and cache entries, requests after see the new ones, and no
batch ever mixes the two.

Construct servers through :class:`~repro.serving.ServingConfig` and
:func:`repro.serving.create_server`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.serving.config import ServingConfig
from repro.tensor.edge_plan import shared_plan_cache
from repro.utils.validation import check_1d_int_array

#: inbox sentinel shutting the serve thread down after all earlier items.
_STOP = object()


class Executor(Protocol):
    """What a :class:`Server` needs from the thing that computes logits.

    The seam between the frontend and a deployment: the three library
    executors implement it, a test drives the frontend with an in-memory
    fake, and a network transport would plug in here.  Every method is
    called from the serve thread except :meth:`start` / :meth:`stop` (the
    caller's thread, before the serve thread exists / after it has exited)
    and :meth:`stats` (any thread).
    """

    #: valid request ids are ``[0, num_nodes)``.
    num_nodes: int
    #: depth of the model; ``compute`` reports ``input_layer == num_layers``
    #: for a batch served purely from cached logits.
    num_layers: int
    #: dtype of served rows (for empty-request results).
    output_dtype: np.dtype

    @property
    def store_version(self) -> int:
        """Version of the features being served; a change bumps the serving version."""

    def start(self) -> None:
        """Bring up the executor's resources (workers, caches); model to ``eval()``."""

    def compute(self, seeds: np.ndarray) -> Tuple[np.ndarray, int]:
        """``(logit rows, input_layer)`` of the ascending unique ``seeds``."""

    def apply_update(self, apply_fn: Optional[Callable]) -> None:
        """Run ``apply_fn(model)`` (if given) and invalidate every cached activation."""

    def stats(self) -> dict:
        """The executor section of :meth:`Server.stats` (stores, caches, workers)."""

    def stop(self) -> None:
        """Release what :meth:`start` brought up; idempotent."""


class _Predict:
    """One enqueued request: the validated ids and the future to resolve."""

    __slots__ = ("ids", "future")

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.future: "Future[np.ndarray]" = Future()


class _Update:
    """An enqueued model update: applied on the serve thread, bumps the version."""

    __slots__ = ("apply_fn", "future")

    def __init__(self, apply_fn: Optional[Callable]):
        self.apply_fn = apply_fn
        self.future: "Future[int]" = Future()


class _Inbox:
    """The bounded queue between client threads and the serve thread.

    One lock guards a deque of ``_Predict`` / ``_Update`` items (and the stop
    sentinel), the seeds of the queued requests and of the batch being
    coalesced, and the count of accepted requests.  Clients wait on
    ``_space`` only while ``max_pending`` items are queued.  The serve thread
    waits on ``_ready``, and a client notifies it only when its item makes
    the awaited condition true: the first item of an idle inbox, a barrier,
    the seed that lets the open batch close by size, or the item that fills
    the inbox.
    """

    def __init__(self, max_pending: int, window_s: float, max_batch_seeds: int):
        self.max_pending = max_pending
        self.window_s = window_s
        self.max_batch_seeds = max_batch_seeds
        self._items: Deque[object] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._seeds = 0
        self._batch_open = False
        self._closed = False
        #: requests accepted so far (``stats()["requests"]``).
        self.accepted = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item, timeout: Optional[float]) -> bool:
        """Queue ``item``, waiting up to ``timeout`` s for room; ``False`` once closed.

        The stop sentinel never waits for room.  Raises ``RuntimeError`` when
        the inbox is still full after ``timeout``.
        """
        with self._lock:
            if item is not _STOP and len(self._items) >= self.max_pending:
                if not self._space.wait_for(self._has_room, timeout):
                    raise RuntimeError(f"request queue full ({self.max_pending} pending)")
            if self._closed:
                return False
            self._items.append(item)
            if isinstance(item, _Predict):
                self.accepted += 1
                self._seeds += len(item.ids)
                if (
                    (self._batch_open or len(self._items) > 1)
                    and self._seeds < self.max_batch_seeds
                    and len(self._items) < self.max_pending
                ):
                    return True  # the serve thread is busy, or its batch stays open
            self._ready.notify()
            return True

    def _has_room(self) -> bool:
        return self._closed or len(self._items) < self.max_pending

    def take(self) -> Union[List[_Predict], _Update, object]:
        """The serve thread's next work: a batch of requests, an ``_Update`` or ``_STOP``.

        Sleeps until something is queued.  A request opens a batch, which
        takes the queued requests in order up to and including the one that
        reaches ``max_batch_seeds``, never past a barrier.  With a window, a
        batch still short of seeds sleeps until more arrive, a barrier is
        queued or the window passes; every wake-up drains in one lock hold.
        Without a window a batch is exactly one request.
        """
        with self._lock:
            while not self._items:
                self._ready.wait()
            items = self._items
            if not isinstance(items[0], _Predict):
                self._space.notify()
                return items.popleft()
            limit = self.max_batch_seeds if self.window_s > 0 else 1
            deadline = time.monotonic() + self.window_s
            batch: List[_Predict] = []
            seeds = 0
            self._batch_open = True
            while True:
                taken = len(batch)
                while seeds < limit and items and isinstance(items[0], _Predict):
                    item = items.popleft()
                    batch.append(item)
                    seeds += len(item.ids)
                self._space.notify(len(batch) - taken)
                remaining = deadline - time.monotonic()
                # Short of the limit, a non-empty deque starts with a barrier.
                if seeds >= limit or items or remaining <= 0:
                    break
                self._ready.wait(remaining)
            self._batch_open = False
            self._seeds -= seeds
            return batch

    def close(self) -> list:
        """Refuse every later :meth:`put` and hand back what is still queued."""
        with self._lock:
            self._closed = True
            leftovers = list(self._items)
            self._items.clear()
            self._seeds = 0
            self._space.notify_all()
        return leftovers


class Server:
    """Serve ``predict(node_ids)`` with micro-batching over an :class:`Executor`.

    Parameters
    ----------
    executor:
        Computes the logits of one deduplicated seed set; see
        :class:`Executor`.  The server starts and stops it.
    config:
        The :class:`~repro.serving.ServingConfig` carrying the
        micro-batching window, queue bound and timeouts (``None`` uses the
        defaults).  Prefer :func:`repro.serving.create_server`, which builds
        the executor ``config.backend`` names.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_sbm_dataset
    >>> from repro.nn.models import GraphSageNet
    >>> from repro.serving import ServingConfig, create_server
    >>> from repro.utils.seed import set_seed
    >>> set_seed(0)
    >>> ds = make_sbm_dataset(name="s", num_nodes=80, num_classes=3,
    ...                       feature_dim=8, p_in=0.1, p_out=0.02)
    >>> model = GraphSageNet(8, 16, 3, num_layers=2, dropout=0.0)
    >>> config = ServingConfig(byte_budget=1 << 20)
    >>> with create_server(model, ds.graph, ds.features, config) as server:
    ...     logits = server.predict([3, 1, 4, 1])
    >>> logits.shape
    (4, 3)
    """

    def __init__(self, executor: Executor, config: Optional[ServingConfig] = None):
        self.executor = executor
        self.config = config if config is not None else ServingConfig()
        #: ``stats()["backend"]`` discriminator.
        self.backend = self.config.backend
        self.window_s = float(self.config.window_ms) / 1e3
        self.max_batch_seeds = self.config.max_batch_seeds
        self._num_nodes = int(executor.num_nodes)
        self._inbox = _Inbox(self.config.max_pending, self.window_s, self.max_batch_seeds)
        self._thread: Optional[threading.Thread] = None
        self._accepting = False
        self._started = False
        self._stopped = False
        self._version = 1
        self._store_version_seen = executor.store_version
        self._stats_lock = threading.Lock()
        self._served_requests = 0
        self._batches = 0
        self._seeds_executed = 0
        self._max_requests_in_batch = 0
        self._fast_path_batches = 0
        self._updates = 0
        #: the shallowest layer each batch had to compute from: input_layer ->
        #: batch count (0 = read raw features, ``num_layers`` = all-logits fast path).
        self._frontier_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Server":
        """Start the executor and the serve thread (idempotent until :meth:`stop`)."""
        if self._stopped:
            raise RuntimeError("Server cannot be restarted after stop()")
        if self._thread is None:
            self.executor.start()
            self._accepting = True
            self._started = True
            self._thread = threading.Thread(
                target=self._serve_loop, name="inference-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Serve the already-queued requests, then stop the serve thread and executor."""
        if self._thread is None or self._stopped:
            self._stopped = True
            return
        if timeout is None:
            timeout = self.config.stop_timeout_s
        self._accepting = False
        self._inbox.put(_STOP, None)
        self._thread.join(timeout)
        self.executor.stop()
        self._stopped = True

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._accepting and self._thread is not None and self._thread.is_alive()

    @property
    def version(self) -> int:
        """Serving version: bumped by every :meth:`update` and feature-store change."""
        return self._version

    def _not_running(self) -> RuntimeError:
        if not self._started:
            return RuntimeError(
                "Server is not running — it was never started; call start() "
                "(or use the server as a context manager) first"
            )
        return RuntimeError("Server is not running (call start())")

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def _enqueue(self, item, timeout: Optional[float]) -> None:
        if not self._inbox.put(item, timeout):
            # The serve thread has exited (stop() won the race): nothing would
            # ever see this item.
            raise self._not_running()

    def predict_async(self, node_ids, timeout: Optional[float] = None) -> "Future[np.ndarray]":
        """Enqueue a request; the future resolves to its ``(len(ids), C)`` logits.

        Rows follow the request's id order (duplicates included).  Blocks
        only when the request queue is full (backpressure), up to
        ``timeout`` seconds, then raises ``RuntimeError``.
        """
        ids = check_1d_int_array(node_ids, "node_ids", max_value=self._num_nodes)
        # A serve thread that has exited closed the inbox, so _enqueue
        # refuses the request; checking _accepting alone is enough here.
        if not self._accepting:
            raise self._not_running()
        item = _Predict(ids)
        if ids.size == 0:
            item.future.set_result(np.empty((0, 0), dtype=self.executor.output_dtype))
            return item.future
        self._enqueue(item, timeout)
        return item.future

    def predict(self, node_ids, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking :meth:`predict_async`; returns the logit rows."""
        if timeout is None:
            timeout = self.config.predict_timeout_s
        return self.predict_async(node_ids, timeout=timeout).result(timeout)

    def update(self, apply_fn: Optional[Callable] = None, timeout: Optional[float] = 30.0) -> int:
        """Apply a model mutation on the serve thread and invalidate caches.

        ``apply_fn(model)`` (if given) runs serialized between batches:
        requests enqueued before this call are served by the old model and
        cache version, requests after by the new ones.  Returns the new
        version number.  ``update()`` with no function is a pure version
        bump — e.g. after swapping the feature matrix's contents in place.
        """
        if not self.running:
            raise self._not_running()
        item = _Update(apply_fn)
        self._enqueue(item, timeout)
        return item.future.result(timeout)

    def stats(self) -> dict:
        """Telemetry snapshot in the shape shared by every backend.

        See ``docs/serving.md`` ("The stats() shape") for the documented
        key-by-key reference; the store / cache / worker keys come from
        :meth:`Executor.stats`.
        """
        with self._stats_lock:
            snapshot = {
                "backend": self.backend,
                "running": self.running,
                "requests": self._inbox.accepted,
                "served_requests": self._served_requests,
                "batches": self._batches,
                "seeds_executed": self._seeds_executed,
                "max_requests_in_batch": self._max_requests_in_batch,
                "fast_path_batches": self._fast_path_batches,
                "updates": self._updates,
                "frontier_layers": dict(sorted(self._frontier_counts.items())),
                "queue_depth": len(self._inbox),
                "version": self._version,
            }
        snapshot.update(self.executor.stats())
        snapshot["plan_cache"] = shared_plan_cache().stats()
        return snapshot

    # ------------------------------------------------------------------ #
    # serve thread
    # ------------------------------------------------------------------ #
    def _serve_loop(self) -> None:
        try:
            while True:
                work = self._inbox.take()
                if work is _STOP:
                    break
                if isinstance(work, _Update):
                    self._apply(work)
                else:
                    self._execute(work)
        finally:
            # predict_async / update can pass their running check and then
            # enqueue behind the stop sentinel; fail those at once rather
            # than leave the client blocked for its full timeout.
            for item in self._inbox.close():
                if item is not _STOP:
                    item.future.set_exception(self._not_running())

    def _apply(self, item: _Update) -> None:
        try:
            self.executor.apply_update(item.apply_fn)
            with self._stats_lock:
                self._updates += 1
                self._version += 1
            item.future.set_result(self._version)
        except BaseException as exc:  # propagate to the waiting client
            item.future.set_exception(exc)

    def _execute(self, batch: List[_Predict]) -> None:
        try:
            all_ids = (
                batch[0].ids if len(batch) == 1 else np.concatenate([item.ids for item in batch])
            )
            seeds, inverse = np.unique(all_ids, return_inverse=True)
            logits, input_layer = self.executor.compute(seeds)
            rows = logits[inverse]
            offset = 0
            for item in batch:
                n = len(item.ids)
                # Each result owns its rows, so a kept result does not keep
                # the whole batch's array alive.
                item.future.set_result(rows if n == len(rows) else rows[offset : offset + n].copy())
                offset += n
            store_version = self.executor.store_version
            with self._stats_lock:
                if store_version != self._store_version_seen:
                    # The executor folded a feature-store change into this
                    # batch (and dropped its cached activations).
                    self._store_version_seen = store_version
                    self._version += 1
                self._served_requests += len(batch)
                self._batches += 1
                self._seeds_executed += len(seeds)
                self._max_requests_in_batch = max(self._max_requests_in_batch, len(batch))
                if input_layer == self.executor.num_layers:
                    self._fast_path_batches += 1
                self._frontier_counts[input_layer] = self._frontier_counts.get(input_layer, 0) + 1
        except BaseException as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
