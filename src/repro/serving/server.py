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

**Micro-batching.**  Requests land on a bounded queue consumed by one serve
thread.  It takes the first request, then keeps draining the queue until
``window_ms`` elapses or ``max_batch_seeds`` requested seeds have
accumulated; the coalesced requests are deduplicated into one ascending seed
set, computed once by the executor, and the per-seed logit rows are
scattered back to each request's future.  ``window_ms=0`` disables
coalescing (strictly one request per execution).

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

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.serving.config import ServingConfig
from repro.tensor.edge_plan import shared_plan_cache
from repro.utils.validation import check_1d_int_array

#: queue sentinel shutting the serve thread down after all earlier items.
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
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_pending)
        self._thread: Optional[threading.Thread] = None
        self._accepting = False
        self._started = False
        self._stopped = False
        #: set by the serve thread just before its final queue sweep; an
        #: enqueue that lands after it sweeps the queue itself.
        self._loop_exited = False
        self._version = 1
        self._store_version_seen = executor.store_version
        self._stats_lock = threading.Lock()
        self._requests = 0
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
        self._queue.put(_STOP)
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
        try:
            self._queue.put(item, timeout=timeout)
        except queue.Full:
            raise RuntimeError(f"request queue full ({self._queue.maxsize} pending)") from None
        if self._loop_exited:
            # stop() won the race: the serve thread is gone and would never
            # see this item.
            self._fail_leftovers()

    def predict_async(self, node_ids, timeout: Optional[float] = None) -> "Future[np.ndarray]":
        """Enqueue a request; the future resolves to its ``(len(ids), C)`` logits.

        Rows follow the request's id order (duplicates included).  Blocks
        only when the request queue is full (backpressure), up to
        ``timeout`` seconds, then raises ``RuntimeError``.
        """
        ids = check_1d_int_array(node_ids, "node_ids", max_value=self._num_nodes)
        if not self.running:
            raise self._not_running()
        item = _Predict(ids)
        if ids.size == 0:
            item.future.set_result(np.empty((0, 0), dtype=self.executor.output_dtype))
            return item.future
        self._enqueue(item, timeout)
        with self._stats_lock:
            self._requests += 1
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
                "requests": self._requests,
                "served_requests": self._served_requests,
                "batches": self._batches,
                "seeds_executed": self._seeds_executed,
                "max_requests_in_batch": self._max_requests_in_batch,
                "fast_path_batches": self._fast_path_batches,
                "updates": self._updates,
                "frontier_layers": dict(sorted(self._frontier_counts.items())),
                "queue_depth": self._queue.qsize(),
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
            self._serve_until_stopped()
        finally:
            self._loop_exited = True
            self._fail_leftovers()

    def _serve_until_stopped(self) -> None:
        stop = False
        carried: Optional[_Update] = None
        while not stop:
            if carried is not None:
                item, carried = carried, None
            else:
                item = self._queue.get()
            if item is _STOP:
                break
            if isinstance(item, _Update):
                self._apply(item)
                continue
            batch: List[_Predict] = [item]
            if self.window_s > 0:
                deadline = time.perf_counter() + self.window_s
                seeds = len(item.ids)
                while seeds < self.max_batch_seeds:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    if isinstance(nxt, _Update):
                        # Updates are barriers: close the batch, run it on the
                        # old version, then apply the update next iteration.
                        carried = nxt
                        break
                    batch.append(nxt)
                    seeds += len(nxt.ids)
            self._execute(batch)

    def _fail_leftovers(self) -> None:
        """Fail every request still queued once the serve thread is gone.

        ``predict_async`` / ``update`` can pass their running check and then
        enqueue behind the stop sentinel; nothing would ever resolve those
        futures, so the client would block for its full timeout.
        """
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
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
            offset = 0
            for item in batch:
                n = len(item.ids)
                item.future.set_result(logits[inverse[offset : offset + n]])
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
