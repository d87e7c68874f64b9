"""The serving executors: how one deduplicated seed set becomes logit rows.

A :class:`~repro.serving.Server` delegates each coalesced batch to an
:class:`~repro.serving.server.Executor`.  There are three, two of them the
same class over different transports:

* :class:`LocalExecutor` — the whole :class:`~repro.graph.graph.Graph` in
  this process.  Per batch it walks the seeds' receptive field node by node
  over the graph's in-edge index: a row its :class:`~repro.serving.cache.
  EmbeddingCache` holds is a leaf, only a missed row expands one layer down,
  so the blocks it builds and runs cover the miss set and nothing else.
* :class:`ShardExecutor` over a :class:`~repro.distributed.thread_backend.
  ThreadServiceCluster` (``backend="distributed"``) — partition shards, one
  worker thread each, exact byte-level ``CommStats`` accounting.
* :class:`ShardExecutor` over a :class:`~repro.distributed.mp_backend.
  MultiprocessServiceCluster` (``backend="mp"``) — the same shards in forked
  worker processes: no shared GIL, crash containment, activations exchanged
  through shared-memory arenas.

Both shard transports run one :class:`ShardWorker` per shard — the shard's
:class:`~repro.core.dist_graph.DistributedGraph`, feature store and
embedding cache behind a ``worker(kind, payload)`` request handler — and
differ only in what the cluster object is: whether a job crosses a thread
queue or a pickling process queue, and (``cluster.shares_address_space``)
whether the workers see the parent's model and feature store live or hold
forked snapshots that mutations must be shipped to.

Every served row is **bit-identical** to the eval-mode full-graph forward on
every executor: compacted and restricted blocks keep each destination's
complete in-neighbourhood in the single-machine reduction order, and cached
rows are bit-identical to recomputation.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.dist_graph import DistributedGraph
from repro.distributed.mp_backend import MultiprocessServiceCluster
from repro.distributed.thread_backend import ThreadServiceCluster
from repro.graph.graph import Graph
from repro.graph.mfg import block_from_in_edges
from repro.partition.shard import ShardedGraph
from repro.sample.inference import (
    check_layered_model,
    distributed_restricted_logits,
    probe_rows,
    splice_rows,
)
from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.store import FeatureStore, PartitionedKVStore, as_feature_store
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


def _make_cache(config: ServingConfig) -> Optional[EmbeddingCache]:
    if config.byte_budget is None:
        return None
    return EmbeddingCache(config.byte_budget)


def _apply_to_model(model, apply_fn: Callable) -> None:
    """Run ``apply_fn(model)``; if it raises, the weights are what they were before the call."""
    before = model.state_dict()
    try:
        apply_fn(model)
    except BaseException:
        model.load_state_dict(before)
        raise
    finally:
        model.eval()


class LocalExecutor:
    """Compute logits over a whole graph held in this process.

    Parameters
    ----------
    model:
        A trained module exposing ``num_layers`` and ``forward_layer(index,
        graph, x)`` (every ``repro.nn`` model).  Switched to ``eval()`` on
        :meth:`start` and kept there; mutate it only through
        :meth:`Server.update <repro.serving.Server.update>`.
    graph:
        The full :class:`~repro.graph.graph.Graph`, homogeneous or
        relational: the receptive-field walk expands every relation's
        in-edges, so an R-GCN model serves like any other.
    features:
        ``(num_nodes, in_features)`` input feature matrix (read-only), or
        any :class:`~repro.store.FeatureStore` covering the graph's nodes —
        batch input rows are gathered through the store, so serving runs
        unchanged over partitioned KV features or a trained embedding table.
        When the store reports a new :attr:`~repro.store.FeatureStore.
        version` (features replaced, embedding rows stepped), the next batch
        drops every cached activation, so stale rows are never served.
    config:
        ``byte_budget`` sizes the embedding cache.
    """

    def __init__(self, model, graph: Graph, features, config: ServingConfig):
        if not isinstance(graph, Graph):
            got = ("a shard list (that needs backend='distributed' or 'mp')"
                   if isinstance(graph, (list, tuple)) else type(graph).__name__)
            raise ValueError(f"backend='local' serves one Graph, got {got}")
        store = as_feature_store(features)
        if store.num_rows != graph.num_nodes:
            raise ValueError(
                f"features must cover the graph's {graph.num_nodes} nodes, "
                f"got {store.num_rows} rows"
            )
        self.num_layers = check_layered_model(model)
        self.num_nodes = graph.num_nodes
        self.output_dtype = store.dtype
        self.model = model
        self.graph = graph
        self.store = store
        self.cache = _make_cache(config)
        self._store_version_seen = store.version

    @property
    def store_version(self) -> int:
        return self.store.version

    def start(self) -> None:
        self.model.eval()
        self.graph.in_edge_index()  # the one O(|E|) sort, paid here and not by a request

    def stop(self) -> None:
        pass

    def apply_update(self, apply_fn: Optional[Callable]) -> None:
        if apply_fn is not None:
            _apply_to_model(self.model, apply_fn)
        if self.cache is not None:
            self.cache.bump_version()

    def stats(self) -> dict:
        return {
            "store_version": self.store.version,
            "embedding_cache": self.cache.stats() if self.cache is not None else None,
            "feature_store": self.store.stats() or None,
            "workers": None,
        }

    def compute(self, seeds: np.ndarray):
        """Logits of the ascending unique ``seeds``; returns ``(rows, frontier)``."""
        cache = self.cache
        model = self.model
        num_layers = self.num_layers
        if cache is not None and self.store.version != self._store_version_seen:
            # A store mutation (replace(), sparse-embedding step) invalidates
            # every cached activation exactly once, at the next batch
            # boundary.  Runs on the serve thread, serialized with cache reads.
            self._store_version_seen = self.store.version
            cache.bump_version()
        index = self.graph.in_edge_index()
        # Backward, from the seeds (level ``num_layers``) down: probe every
        # required node of the level; a hit is a leaf, the misses expand to
        # themselves plus their complete in-neighbourhoods one level down.
        # Stops at the first level with no miss, or at the raw features.
        nodes, start = seeds, num_layers
        pending = []  # (block, found, hit_rows) of levels num_layers .. start + 1
        while True:
            if start == 0:
                x = self.store.gather(nodes)
                break
            found, hit_rows = probe_rows(cache, start, nodes)
            if found.all():
                x = hit_rows
                break
            block = block_from_in_edges(index, nodes[~found])
            pending.append((block, found, hit_rows))
            nodes, start = block.src_nodes, start - 1
        # Forward: conv layer ``l`` computes exactly level ``l + 1``'s misses;
        # the level's input matrix is spliced from its hits and those rows.
        with no_grad():
            for layer, (block, found, hit_rows) in zip(range(start, num_layers), pending[::-1]):
                computed = model.forward_layer(layer, block, Tensor(x)).data
                if cache is not None:
                    cache.put(layer + 1, block.dst_nodes, computed)
                x = splice_rows(found, hit_rows, computed)
        return x, start


# --------------------------------------------------------------------------- #
# shard-backed serving
# --------------------------------------------------------------------------- #
def _build_worker_store(features, config: ServingConfig, book, rank: int, comm) -> FeatureStore:
    """Rank ``rank``'s :class:`FeatureStore` over the checked ``features``.

    A :class:`FeatureStore` is shared as-is.  The global matrix becomes a
    :class:`~repro.store.PartitionedKVStore` over this rank's owned rows,
    published through ``comm`` at construction (peers fetch them on demand).
    """
    if isinstance(features, FeatureStore):
        return features
    return PartitionedKVStore(comm, book, features[book.nodes_of(rank)], name="serving",
                              cache_bytes=config.feature_cache_bytes)


class ShardWorker:
    """One shard's serving state and its request handler.

    Built inside a service-cluster worker (thread or forked process) — the
    class, partially applied by :class:`ShardExecutor`, is the cluster's
    ``service_factory(rank, comm)`` and the instance its ``handler(kind,
    payload)``.  Construction is collective: every rank builds its
    :class:`~repro.core.dist_graph.DistributedGraph` (halo-routing exchange)
    and feature store concurrently.
    """

    def __init__(self, rank: int, comm, *, model, shards, spec, config: ServingConfig):
        self.rank = rank
        self.comm = comm
        self.model = model
        self.dist_graph = DistributedGraph(shards[rank], comm)
        self.store = _build_worker_store(spec, config, shards[rank].book, rank, comm)
        self.cache = _make_cache(config)
        self._store_version_seen = self.store.version

    def __call__(self, kind: str, payload):
        if kind == "predict":
            return self.predict(payload)
        if kind == "update":
            return self.update(payload)
        if kind == "replace":
            return self.replace(payload)
        if kind == "stats":
            return self.stats()
        raise ValueError(f"unknown serving request kind {kind!r}")

    def predict(self, seeds: np.ndarray):
        """This shard's ``(owned_seeds, rows, input_layer)`` of one batch."""
        if self.cache is not None and self.store.version != self._store_version_seen:
            # Store-version fold-in, as on the local executor: a replaced
            # store invalidates this shard's cached activations exactly
            # once, at the next batch boundary.
            self._store_version_seen = self.store.version
            self.cache.bump_version()
        return distributed_restricted_logits(
            self.dist_graph, self.model, self.store, seeds, cache=self.cache
        )

    def update(self, state_dict: Optional[dict]) -> None:
        """Load shipped weights (forked workers only) and drop cached activations."""
        if state_dict is not None:
            self.model.load_state_dict(state_dict)
            self.model.eval()
        if self.cache is not None:
            self.cache.bump_version()

    def replace(self, matrix: np.ndarray) -> None:
        """Swap in the full ``(num_nodes, dim)`` replacement feature matrix.

        Sent only to a forked snapshot of a passed :class:`FeatureStore`; a
        worker's own :class:`PartitionedKVStore` is never replaced.
        """
        self.store.replace(matrix)

    def stats(self) -> dict:
        return {
            "rank": self.rank,
            "store_version": self.store.version,
            "embedding_cache": self.cache.stats() if self.cache is not None else None,
            "feature_store": self.store.stats() or None,
            "comm": self.comm.stats.serving_snapshot(),
        }


def _check_shards(shards: Sequence[ShardedGraph]) -> List[ShardedGraph]:
    if (
        not isinstance(shards, (list, tuple))
        or not shards
        or not all(isinstance(s, ShardedGraph) for s in shards)
    ):
        raise ValueError(
            f"the shard-backed backends serve a non-empty list of ShardedGraph "
            f"(what repro.partition.shard.create_shards returns), "
            f"got {type(shards).__name__}"
        )
    shards = list(shards)
    book = shards[0].book
    if len(shards) != book.num_parts or any(
        s.book is not book or s.rank != p for p, s in enumerate(shards)
    ):
        raise ValueError(
            "shards must cover every partition of one shared PartitionBook, in rank order"
        )
    return shards


def _check_features(features, book):
    """Early shape/type validation of the features (before any worker exists)."""
    if isinstance(features, FeatureStore):
        if features.num_rows != book.num_nodes:
            raise ValueError(
                f"feature store must cover all {book.num_nodes} global "
                f"rows, got {features.num_rows}"
            )
        return features
    if not isinstance(features, np.ndarray):
        raise ValueError(
            "the shard-backed backends take the global (num_nodes, dim) feature "
            "matrix or one FeatureStore covering every global row (DenseStore(matrix) "
            f"shares one dense matrix), got {type(features).__name__}"
        )
    if features.ndim != 2 or features.shape[0] != book.num_nodes:
        raise ValueError(
            f"features must be (num_nodes={book.num_nodes}, dim), got shape {features.shape}"
        )
    return features


def _aggregate_counters(dicts: List[Optional[dict]]) -> Optional[dict]:
    """Sum per-worker counter dicts (``version`` by max, strings by first)."""
    dicts = [d for d in dicts if d]
    if not dicts:
        return None
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            if isinstance(v, str):
                out.setdefault(k, v)
            elif k == "version":
                out[k] = max(out.get(k, v), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


#: ``ServingConfig.backend`` -> the service cluster its shard workers run on.
_CLUSTERS = {"distributed": ThreadServiceCluster, "mp": MultiprocessServiceCluster}


class ShardExecutor:
    """Compute logits cooperatively over partition shards.

    A coalesced batch's seed set goes to every shard's :class:`ShardWorker`;
    each walks the seeds' receptive field over the nodes *it owns*
    (:func:`repro.sample.inference.distributed_restricted_logits`) — a row
    its cache holds is a leaf, the union of every worker's misses is the
    next level — publishing each level's owned rows for the peers whose
    blocks read them; the owned logit rows come back and are scattered into
    the batch's seed order.

    Parameters
    ----------
    model:
        A trained module exposing ``num_layers`` and ``forward_layer``.
        Worker threads share it (safe: ``eval()``-mode layers are stateless
        in their forward pass); forked workers hold copies, refreshed with
        the parent's ``state_dict()`` on every update.
    shards:
        One :class:`~repro.partition.shard.ShardedGraph` per worker, in rank
        order, all sharing one partition book (what
        :func:`repro.partition.shard.create_shards` returns).
    features:
        The global ``(num_nodes, dim)`` feature matrix, which becomes one
        :class:`~repro.store.PartitionedKVStore` per worker (owned rows
        resident, remote rows pulled through a hot-row cache of
        ``config.feature_cache_bytes``); or one
        :class:`~repro.store.FeatureStore` covering the global rows, used
        as-is by every worker (``DenseStore(matrix)`` shares one dense
        matrix).
    config:
        ``backend`` picks the transport (``"distributed"``: worker threads,
        ``"mp"``: forked processes — requires the ``fork`` start method).

    On the process transport a features ``replace()`` reaches the workers
    only when the features were passed as one :class:`~repro.store.
    FeatureStore`: the parent watches its ``version`` and ships the full
    replacement matrix before the next batch.  A raw matrix mutated in place
    in the parent is **not** propagated (the children hold forked
    snapshots).
    """

    def __init__(self, model, shards: Sequence[ShardedGraph], features, config: ServingConfig):
        self.shards = _check_shards(shards)
        self.book = self.shards[0].book
        self._spec = _check_features(features, self.book)
        self.num_layers = check_layered_model(model)
        self.num_nodes = self.book.num_nodes
        self.output_dtype = self._spec.dtype
        self.model = model
        # The factory holds what a worker needs and nothing else: a bound
        # method here would tie executor and cluster into a reference cycle
        # that keeps the shards alive until a full garbage collection.
        self.cluster = _CLUSTERS[config.backend](
            functools.partial(
                ShardWorker, model=model, shards=self.shards, spec=self._spec, config=config
            ),
            world_size=len(self.shards),
            timeout_s=config.comm_timeout_s,
            name="serving-shard",
        )
        self._spec_version_shipped = self.store_version
        self._last_worker_stats: List[dict] = []

    @property
    def store_version(self) -> int:
        spec = self._spec
        return spec.version if isinstance(spec, FeatureStore) else 0

    def start(self) -> None:
        # Before the serve thread exists and after ``model.eval()`` — a fork
        # happens from an effectively single-threaded parent and every child
        # inherits an eval'd model.
        self.model.eval()
        self.cluster.start()

    def stop(self) -> None:
        self._worker_stats()  # keep the final snapshot readable after the workers are gone
        self.cluster.stop()

    def compute(self, seeds: np.ndarray):
        spec = self._spec
        if (
            not self.cluster.shares_address_space
            and isinstance(spec, FeatureStore)
            and spec.version != self._spec_version_shipped
        ):
            # Forked workers hold a snapshot of the store: ship the full
            # replacement before the batch runs.
            self._spec_version_shipped = spec.version
            self.cluster.request("replace", spec.gather(None))
        results = self.cluster.request("predict", seeds)
        # Every worker returns the rows of the batch seeds it owns (ascending
        # owned-seed order); searchsorted rebuilds the batch's seed order.
        out = None
        for owned_ids, rows, _ in results:
            if rows is None:
                continue
            if out is None:
                out = np.empty((len(seeds), rows.shape[1]), dtype=rows.dtype)
            out[np.searchsorted(seeds, owned_ids)] = rows
        return out, results[0][2]

    def apply_update(self, apply_fn: Optional[Callable]) -> None:
        # Runs on the serve thread with no batch in flight.  The parent's
        # model is authoritative; workers that cannot see it get the weights
        # shipped, and every worker drops its cached activations.
        state_dict = None
        if apply_fn is not None:
            _apply_to_model(self.model, apply_fn)
            if not self.cluster.shares_address_space:
                state_dict = self.model.state_dict()
        self.cluster.request("update", state_dict)

    def _worker_stats(self) -> List[dict]:
        try:
            self._last_worker_stats = self.cluster.request("stats")
        except RuntimeError:
            # not started, stopped, or poisoned by a failed worker: serve the
            # last snapshot the workers gave
            pass
        return self._last_worker_stats

    def stats(self) -> dict:
        workers = self._worker_stats()
        return {
            "store_version": max((w["store_version"] for w in workers), default=None),
            "embedding_cache": _aggregate_counters([w["embedding_cache"] for w in workers]),
            "feature_store": _aggregate_counters([w["feature_store"] for w in workers]),
            "workers": workers,
            **self.cluster.stats(),
        }
