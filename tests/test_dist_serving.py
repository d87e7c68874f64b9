"""Distributed serving: bit-parity over shards, one configured API surface.

The subsystem contract under test (``repro/serving/``):

* every logit row served over a :class:`~repro.serving.ShardExecutor`
  (per-shard workers, cooperative restricted grids, halo fetches for
  cache-missed frontier rows) is **bit-identical** to the single-machine
  :class:`~repro.serving.LocalExecutor` on the same graph — for every conv
  kind, cold and warm caches, and under concurrent clients;
* ``update()`` serializes behind in-flight batches and invalidates the
  embedding cache on **every** shard; a feature-store ``replace()`` folds in
  at the next batch on every shard;
* :func:`~repro.serving.create_server` is the one public entry point:
  :class:`~repro.serving.ServingConfig` selects the executor behind the one
  :class:`~repro.serving.Server`, and every backend shares one ``stats()``
  shape (plus per-worker halo/frontier/cache telemetry on the shard-backed
  ones);
* calling ``update()``/``predict()`` on a never-started server raises a
  RuntimeError that says so (regression: it used to be indistinguishable
  from a stopped server).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import threading
import time
import weakref

import numpy as np
import pytest

from repro.datasets import make_sbm_dataset
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.serving import (
    LocalExecutor,
    Server,
    ServingConfig,
    ShardExecutor,
    create_server,
)
from repro.store import DenseStore
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

#: per-worker serving telemetry keys (CommStats.serving_snapshot()).
_COMM_KEYS = {
    "halo_bytes_sent", "halo_bytes_received",
    "frontier_bytes_sent", "frontier_bytes_received",
    "cache_hit_rows", "cache_miss_rows", "cache_hit_bytes",
}


@pytest.fixture
def dataset():
    return make_sbm_dataset(
        name="dist-serving-sbm",
        num_nodes=180,
        num_classes=4,
        feature_dim=10,
        p_in=0.12,
        p_out=0.02,
    )


def _make_model(dataset, kind="sage"):
    set_seed(0)
    if kind == "gat":
        return GATNet(
            dataset.feature_dim, 8, dataset.num_classes, num_layers=2,
            num_heads=2, dropout=0.0, use_batch_norm=True,
        )
    return GraphSageNet(
        dataset.feature_dim, 16, dataset.num_classes, num_layers=2,
        dropout=0.5, use_batch_norm=True,
    )


def _make_shards(dataset, world_size):
    book = PartitionBook(
        partition_graph(dataset.graph, world_size, seed=0), world_size
    )
    return create_shards(dataset.graph, book)


def _reference_logits(model, graph, features):
    model.eval()
    with no_grad():
        return model(graph, Tensor(features)).data


# --------------------------------------------------------------------------- #
# parity matrix: distributed == single-machine, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("byte_budget", [None, 1 << 20])
def test_distributed_bit_identical_to_local_server(dataset, kind, byte_budget):
    """sage/gat x cache-on/off x cold+warm: exact rows from 2 shards."""
    model = _make_model(dataset, kind)
    streams = [[5], [3, 1, 4, 1, 5], [0, 179], list(range(40))]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=byte_budget),
    ) as local:
        expected = [local.predict(ids) for ids in streams]

    shards = _make_shards(dataset, 2)
    config = ServingConfig(
        backend="distributed", window_ms=0.0, byte_budget=byte_budget
    )
    with create_server(model, shards, dataset.features, config) as server:
        assert isinstance(server.executor, ShardExecutor)
        for ids, want in zip(streams, expected):  # cold caches
            np.testing.assert_array_equal(server.predict(ids), want)
        for ids, want in zip(streams, expected):  # warm caches
            np.testing.assert_array_equal(server.predict(ids), want)
        stats = server.stats()
    if byte_budget is not None:
        # Warm repeats hit the all-logits fast path on every shard.
        assert stats["fast_path_batches"] >= 1
    assert stats["served_requests"] == 2 * len(streams)


def test_concurrent_clients_distributed_bit_identical(dataset):
    """Coalesced concurrent requests over 3 shards all get exact rows."""
    model = _make_model(dataset, "gat")
    reference = _reference_logits(model, dataset.graph, dataset.features)
    rng = np.random.default_rng(11)
    streams = [
        rng.integers(0, dataset.graph.num_nodes, size=10) for _ in range(6)
    ]
    errors = []
    shards = _make_shards(dataset, 3)
    config = ServingConfig(
        backend="distributed", window_ms=2.0, byte_budget=1 << 20
    )
    with create_server(model, shards, dataset.features, config) as server:

        def client(stream):
            try:
                for node in stream:
                    row = server.predict([int(node)])
                    np.testing.assert_array_equal(row[0], reference[node])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,)) for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
    assert not errors
    assert stats["served_requests"] == sum(len(s) for s in streams)


# --------------------------------------------------------------------------- #
# invalidation: updates and store versions reach every shard
# --------------------------------------------------------------------------- #
def test_update_invalidates_every_shard(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90, 140]
    shards = _make_shards(dataset, 2)
    config = ServingConfig(
        backend="distributed", window_ms=0.0, byte_budget=1 << 20
    )
    with create_server(model, shards, dataset.features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert server.version == 1

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data + 0.25

        assert server.update(perturb) == 2
        new_reference = _reference_logits(model, dataset.graph, dataset.features)
        assert not np.array_equal(new_reference, reference)
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["updates"] == 1
    assert stats["embedding_cache"]["version"] == 2
    for worker in stats["workers"]:
        assert worker["embedding_cache"]["version"] == 2
        assert worker["embedding_cache"]["invalidations"] >= 1


def test_store_replace_folds_into_every_shard(dataset):
    """A shared store's replace() invalidates all shards at the next batch."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90]
    store = DenseStore(dataset.features.copy())
    shards = _make_shards(dataset, 2)
    config = ServingConfig(
        backend="distributed", window_ms=0.0, byte_budget=1 << 20
    )
    with create_server(model, shards, store, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        fresh = dataset.features * 1.5
        store.replace(fresh)
        new_reference = _reference_logits(model, dataset.graph, fresh)
        assert not np.array_equal(new_reference, reference)
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["store_version"] == 2
    for worker in stats["workers"]:
        assert worker["embedding_cache"]["invalidations"] >= 1


# --------------------------------------------------------------------------- #
# feature delivery forms
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("form", ["global-kv", "per-worker-kv", "global-dense"])
def test_feature_forms_serve_identical_rows(dataset, form):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [7, 42, 100, 150]
    shards = _make_shards(dataset, 2)
    book = shards[0].book
    if form == "per-worker-kv":
        features = [dataset.features[book.nodes_of(p)] for p in range(2)]
    else:
        features = dataset.features
    store_kind = "dense" if form == "global-dense" else "kv"
    config = ServingConfig(
        backend="distributed", window_ms=0.0, feature_store=store_kind
    )
    with create_server(model, shards, features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    if store_kind == "kv":
        # PartitionedKVStore telemetry surfaces per worker and aggregated.
        for worker in stats["workers"]:
            assert worker["feature_store"]
        assert stats["feature_store"]


# --------------------------------------------------------------------------- #
# the redesigned API surface
# --------------------------------------------------------------------------- #
def test_factory_dispatches_on_backend(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    local = create_server(model, dataset.graph, dataset.features)
    assert isinstance(local, Server)
    assert isinstance(local.executor, LocalExecutor)
    assert not local.running
    dist = create_server(
        model, shards, dataset.features, ServingConfig(backend="distributed")
    )
    assert isinstance(dist, Server)
    assert isinstance(dist.executor, ShardExecutor)
    assert not dist.running


def test_factory_rejects_mismatched_topology(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    with pytest.raises(ValueError, match="backend='distributed'"):
        create_server(model, shards, dataset.features)  # shard list, local
    with pytest.raises(ValueError, match="create_shards"):
        create_server(
            model, dataset.graph, dataset.features,
            ServingConfig(backend="distributed"),
        )
    with pytest.raises(ValueError, match="ServingConfig"):
        create_server(model, dataset.graph, dataset.features, config={"window_ms": 1})
    with pytest.raises(ValueError, match="rank order"):
        create_server(
            model, shards[::-1], dataset.features,
            ServingConfig(backend="distributed"),
        )


def test_serving_config_validates():
    with pytest.raises(ValueError, match="backend"):
        ServingConfig(backend="remote")
    with pytest.raises(ValueError, match="window_ms"):
        ServingConfig(window_ms=-1.0)
    with pytest.raises(ValueError, match="byte_budget"):
        ServingConfig(byte_budget=0)
    with pytest.raises(ValueError, match="feature_store"):
        ServingConfig(feature_store="mmap")


def test_serving_config_rejects_invalid_cross_field_combinations():
    """Combinations that would only misbehave mid-serve raise at construction."""
    # A predict timeout inside the coalescing window can never be met.
    with pytest.raises(ValueError, match="predict_timeout_s"):
        ServingConfig(window_ms=500.0, predict_timeout_s=0.25)
    # The boundary itself is rejected (timeout must strictly exceed).
    with pytest.raises(ValueError, match="predict_timeout_s"):
        ServingConfig(window_ms=1000.0, predict_timeout_s=1.0)
    # A valid neighbour still constructs.
    ServingConfig(window_ms=500.0, predict_timeout_s=1.0)


# --------------------------------------------------------------------------- #
# lifecycle regressions
# --------------------------------------------------------------------------- #
def test_update_on_never_started_server_raises_clearly(dataset):
    """Regression: update()/predict() pre-start must say "never started"."""
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    for server in (
        create_server(model, dataset.graph, dataset.features),
        create_server(
            model, shards, dataset.features,
            ServingConfig(backend="distributed"),
        ),
    ):
        with pytest.raises(RuntimeError, match="never started"):
            server.update(lambda m: None)
        with pytest.raises(RuntimeError, match="never started"):
            server.predict([0])
        # Both phrasings keep the historical "not running" needle.
        with pytest.raises(RuntimeError, match="not running"):
            server.update()


def test_stopped_server_message_differs_from_never_started(dataset):
    model = _make_model(dataset)
    server = create_server(model, dataset.graph, dataset.features)
    server.start()
    server.stop()
    with pytest.raises(RuntimeError, match="not running") as excinfo:
        server.update()
    assert "never started" not in str(excinfo.value)
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_distributed_lifecycle_and_validation(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="distributed", window_ms=0.0)
    server = create_server(model, shards, dataset.features, config)
    server.start()
    assert server.running
    assert server.predict(np.array([], dtype=np.int64)).size == 0
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([dataset.graph.num_nodes])
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([-1])
    server.stop()
    assert not server.running
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


# --------------------------------------------------------------------------- #
# one stats() shape, two backends
# --------------------------------------------------------------------------- #
def test_stats_shape_is_shared_and_workers_carry_comm_telemetry(dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90, 140]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as local:
        local.predict(ids)
        local_stats = local.stats()
    shards = _make_shards(dataset, 2)
    config = ServingConfig(
        backend="distributed", window_ms=0.0, byte_budget=1 << 20
    )
    with create_server(model, shards, dataset.features, config) as dist:
        dist.predict(ids)
        dist.predict(ids)  # warm repeat exercises cache telemetry
        dist_stats = dist.stats()

    assert set(local_stats) == set(dist_stats)
    assert local_stats["backend"] == "local"
    assert local_stats["workers"] is None
    assert dist_stats["backend"] == "distributed"
    workers = dist_stats["workers"]
    assert [w["rank"] for w in workers] == [0, 1]
    for worker in workers:
        assert {"rank", "embedding_cache", "feature_store", "comm"} <= set(worker)
        assert _COMM_KEYS <= set(worker["comm"])
    # The cooperative walk moved frontier bytes; activations crossed shard
    # boundaries through the halo fetch path on at least one worker.
    assert sum(w["comm"]["frontier_bytes_sent"] for w in workers) > 0
    assert sum(w["comm"]["halo_bytes_received"] for w in workers) > 0
    # Aggregated embedding-cache counters cover the per-worker caches.
    agg = dist_stats["embedding_cache"]
    assert agg["hits"] == sum(
        w["embedding_cache"]["hits"] for w in workers
    )


# --------------------------------------------------------------------------- #
# the executor contract: one matrix, every backend
# --------------------------------------------------------------------------- #
_ALL_BACKENDS = ["local", "distributed", "mp"]

#: every ``stats()`` key a backend must report (mp adds ``processes``).
_STATS_KEYS = {
    "backend", "running", "requests", "served_requests", "batches",
    "seeds_executed", "max_requests_in_batch", "fast_path_batches", "updates",
    "frontier_layers", "queue_depth", "version", "store_version",
    "embedding_cache", "feature_store", "workers", "plan_cache",
}


@pytest.fixture(params=_ALL_BACKENDS)
def make_server(request, dataset):
    """``make_server(model, features=None, **config)``: this backend's server.

    One fixture drives the whole matrix — parity, update, store replace,
    stats shape, lifecycle — so a new executor only has to join
    ``_ALL_BACKENDS`` to inherit every test below.  Servers are stopped at
    teardown and no child process may outlive them.
    """
    backend = request.param
    if backend == "mp" and "fork" not in mp.get_all_start_methods():
        pytest.skip("mp serving backend requires the fork start method")
    servers = []

    def make(model, features=None, **config):
        graph = dataset.graph if backend == "local" else _make_shards(dataset, 2)
        features = dataset.features if features is None else features
        config = ServingConfig(backend=backend, window_ms=0.0, **config)
        servers.append(create_server(model, graph, features, config))
        return servers[-1]

    yield make
    for server in servers:
        server.stop()
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


@pytest.fixture
def backend_server(make_server, dataset):
    """An unstarted server of each backend over the same model and graph."""
    return make_server(_make_model(dataset))


@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("byte_budget", [None, 1 << 20])
def test_backend_rows_bit_identical_to_full_graph_forward(
    make_server, dataset, kind, byte_budget
):
    model = _make_model(dataset, kind)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    with make_server(model, byte_budget=byte_budget) as server:
        for _ in ("cold", "warm"):
            for ids in ([5], [3, 1, 4, 1, 5], [0, 179], list(range(40))):
                np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["served_requests"] == 8
    if byte_budget is not None:
        assert stats["fast_path_batches"] >= 1  # warm repeats: cached logits


def test_backend_update_serves_the_new_weights(make_server, dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90, 140]
    with make_server(model, byte_budget=1 << 20) as server:
        before = server.predict(ids)

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data + 0.25

        assert server.update(perturb) == 2
        reference = _reference_logits(model, dataset.graph, dataset.features)
        assert not np.array_equal(reference[ids], before)
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["updates"] == 1 and stats["version"] == 2
    assert stats["embedding_cache"]["invalidations"] >= 1


def test_backend_failed_update_changes_nothing(make_server, dataset):
    """An ``apply_fn`` that raises after overwriting half a weight matrix: the
    client gets the exception, the server keeps the old weights, version and
    cached rows, and (``mp``) the forked replicas are not told anything."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    warm, cold = list(range(40)), list(range(40, 90))
    with make_server(model, byte_budget=1 << 20) as server:
        np.testing.assert_array_equal(server.predict(warm), reference[warm])

        def fail_midway(m):
            weight = max(m.parameters(), key=lambda p: p.data.size)
            weight.data[: len(weight.data) // 2] += 1.0
            m.train()
            raise RuntimeError("checkpoint truncated")

        with pytest.raises(RuntimeError, match="checkpoint truncated"):
            server.update(fail_midway)
        assert not model.training
        after = server.stats()
        assert after["updates"] == 0 and after["version"] == 1
        assert after["embedding_cache"]["invalidations"] == 0
        # cached rows and rows computed now come from the same, old, weights
        np.testing.assert_array_equal(server.predict(warm), reference[warm])
        np.testing.assert_array_equal(server.predict(cold), reference[cold])
        np.testing.assert_array_equal(
            _reference_logits(model, dataset.graph, dataset.features), reference
        )
        assert server.update(None) == 2  # and the server still takes updates


def test_backend_store_replace_is_served_by_the_next_batch(make_server, dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90]
    store = DenseStore(dataset.features.copy())
    with make_server(model, features=store, byte_budget=1 << 20) as server:
        before = server.predict(ids)
        fresh = dataset.features * 1.5
        store.replace(fresh)
        reference = _reference_logits(model, dataset.graph, fresh)
        assert not np.array_equal(reference[ids], before)
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["store_version"] == 2 and stats["version"] == 2
    assert stats["embedding_cache"]["invalidations"] >= 1


def test_backend_stats_shape_is_shared(make_server, dataset):
    with make_server(_make_model(dataset), byte_budget=1 << 20) as server:
        server.predict([3, 17, 90, 140])
        stats = server.stats()
    extra = {"processes"} if server.backend == "mp" else set()
    assert set(stats) == _STATS_KEYS | extra
    assert stats["backend"] == server.backend
    if server.backend == "local":
        assert stats["workers"] is None
    else:
        assert [w["rank"] for w in stats["workers"]] == [0, 1]
        for worker in stats["workers"]:
            assert {"embedding_cache", "feature_store", "comm"} <= set(worker)
            assert _COMM_KEYS <= set(worker["comm"])
    assert server.stats()["workers"] == stats["workers"]  # readable after stop


@pytest.mark.parametrize("backend", _ALL_BACKENDS)
def test_backend_server_is_freed_without_a_gc_pass(dataset, backend):
    # A reference cycle through the executor keeps a stopped server's graph
    # (or shards) alive until the cyclic collector runs; a process that builds
    # servers repeatedly then carries two graphs at its RSS peak.
    graph = dataset.graph if backend == "local" else _make_shards(dataset, 2)
    config = ServingConfig(backend=backend, window_ms=0.0)
    gc.disable()
    try:
        with create_server(_make_model(dataset), graph, dataset.features, config) as server:
            server.predict([0, 1])
        executor = weakref.ref(server.executor)
        del server
        assert executor() is None
    finally:
        gc.enable()


def test_backend_lifecycle_never_started_raises_clearly(backend_server):
    with pytest.raises(RuntimeError, match="never started"):
        backend_server.predict([0])
    with pytest.raises(RuntimeError, match="never started"):
        backend_server.update(lambda m: None)
    # Both phrasings keep the historical "not running" needle.
    with pytest.raises(RuntimeError, match="not running"):
        backend_server.predict([0])


def test_backend_lifecycle_stop_is_terminal(backend_server):
    server = backend_server.start()
    assert server.running
    assert server.start() is server  # idempotent while running
    assert server.predict([0, 1]).shape[0] == 2
    server.stop()
    server.stop()  # idempotent after stop
    assert not server.running
    with pytest.raises(RuntimeError, match="not running") as excinfo:
        server.predict([0])
    assert "never started" not in str(excinfo.value)
    with pytest.raises(RuntimeError, match="not running"):
        server.update()
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_backend_lifecycle_validates_requests(backend_server):
    with backend_server as server:
        assert server.predict(np.array([], dtype=np.int64)).size == 0
        with pytest.raises(ValueError, match="node_ids"):
            server.predict([server._num_nodes])
        with pytest.raises(ValueError, match="node_ids"):
            server.predict([-1])
        assert server.stats()["backend"] == server.backend


# --------------------------------------------------------------------------- #
# soak: many clients x many tiny requests against the thread backend
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_thread_backend_soak_randomized_clients(dataset):
    """Sustained randomized load never serves a wrong or stale row.

    Regression coverage for the PR 9 stale-publish race: per-batch
    activations publish under step-namespaced keys, so a worker lagging at
    a batch boundary must never fetch a *previous* batch's rows.  Under
    unsynchronized clients (random think times), window coalescing, and
    concurrent version bumps, every response is still required to be
    bit-identical to the full-graph forward — a single stale fetch would
    surface as a wrong row.  Also asserts the frontend's stats() counters
    stay mutually consistent after the storm.
    """
    model = _make_model(dataset, "sage")
    reference = _reference_logits(model, dataset.graph, dataset.features)
    shards = _make_shards(dataset, 3)
    config = ServingConfig(
        backend="distributed", window_ms=1.0, byte_budget=1 << 18
    )
    num_clients, requests_per_client = 8, 50
    rng = np.random.default_rng(23)
    streams = [
        rng.integers(0, dataset.graph.num_nodes, size=(requests_per_client, 2))
        for _ in range(num_clients)
    ]
    sleeps = rng.uniform(0.0, 2e-3, size=(num_clients, requests_per_client))
    errors: list = []
    stop_bumping = threading.Event()
    with create_server(model, shards, dataset.features, config) as server:

        def client(idx):
            try:
                for step, ids in enumerate(streams[idx]):
                    time.sleep(sleeps[idx][step])
                    rows = server.predict(ids.tolist())
                    np.testing.assert_array_equal(rows, reference[ids])
            except BaseException as exc:
                errors.append(exc)

        def bumper():
            # Cache invalidations racing the request storm: every bump
            # forces cold recomputes mid-flight on every shard.
            try:
                while not stop_bumping.wait(0.05):
                    server.update()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(num_clients)
        ]
        bump_thread = threading.Thread(target=bumper)
        for t in threads:
            t.start()
        bump_thread.start()
        for t in threads:
            t.join()
        stop_bumping.set()
        bump_thread.join()
        stats = server.stats()

    assert not errors
    total = num_clients * requests_per_client
    assert stats["requests"] == total  # version bumps don't count as requests
    assert stats["served_requests"] == total
    assert stats["batches"] <= total
    assert sum(stats["frontier_layers"].values()) == stats["batches"]
    assert stats["seeds_executed"] >= stats["batches"]
    assert stats["max_requests_in_batch"] >= 1
    assert stats["queue_depth"] == 0
    assert stats["updates"] >= 1
    # Every shard saw every version bump (no shard served stale entries).
    versions = {w["embedding_cache"]["version"] for w in stats["workers"]}
    assert len(versions) == 1
