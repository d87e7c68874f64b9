"""Process-backed serving: bit-parity from forked shards, crash handling.

The subsystem contract under test (``repro.serving.ShardExecutor`` over
``repro/distributed/mp_backend.py``'s service cluster):

* ``create_server(..., ServingConfig(backend="mp"))`` serves logit rows
  **bit-identical** to the single-machine server from >= 2 forked shard
  *processes* — for every conv kind, cold and warm per-process caches, and
  under concurrent client threads;
* ``update()`` ships the parent's new ``state_dict()`` to every worker
  process atomically (serialized against batches), and a feature-store
  ``replace()`` in the parent propagates before the next batch — forked
  children never serve a stale snapshot;
* a shard process killed mid-request fails the in-flight (and every later)
  predict with :class:`~repro.distributed.mp_backend.WorkerFailedError`
  naming the dead rank — promptly (no hang: the frontend polls
  ``Process.is_alive``), and ``stop()`` still reaps everything: no child
  process outlives the server.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_sbm_dataset
from repro.distributed import plane
from repro.distributed.mp_backend import (
    MultiprocessServiceCluster,
    WorkerFailedError,
)
from repro.nn.models import GATNet, GraphSageNet
from repro.partition import PartitionBook, create_shards, partition_graph
from repro.serving import ServingConfig, create_server
from repro.store import DenseStore
from repro.tensor import Tensor, no_grad
from repro.utils.seed import set_seed

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="mp serving backend requires the fork start method",
)

#: generous wall-clock bound proving "no hang" on the failure paths (the
#: healthy path resolves in well under a second).
_NO_HANG_S = 60.0


@pytest.fixture
def dataset():
    # Smaller than the thread-backend fixture: every server here forks two
    # processes, so the graph stays compact to keep the suite quick while
    # still spanning 2 partitions with real halo edges.
    return make_sbm_dataset(
        name="mp-serving-sbm",
        num_nodes=120,
        num_classes=4,
        feature_dim=8,
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


def _assert_no_leaked_children():
    # The cluster's workers are its only children (the data plane is shared
    # memory, not a process); give slow reapers a moment, then require the
    # process table clean.
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


# --------------------------------------------------------------------------- #
# parity matrix: forked processes == single machine, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_mp_bit_identical_to_local_server(dataset, kind):
    """sage/gat x 2 forked shards x cold/warm caches: exact rows."""
    model = _make_model(dataset, kind)
    streams = [[5], [3, 1, 4, 1, 5], [0, 119], list(range(30))]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as local:
        expected = [local.predict(ids) for ids in streams]

    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:
        cluster = server.executor.cluster
        assert isinstance(cluster, MultiprocessServiceCluster)
        assert len(cluster.processes) == 2
        assert all(p.is_alive() for p in cluster.processes)
        # the shard workers are the server's only child processes
        assert sorted(p.pid for p in mp.active_children()) == sorted(
            p.pid for p in cluster.processes
        )
        for ids, want in zip(streams, expected):  # cold per-process caches
            np.testing.assert_array_equal(server.predict(ids), want)
        for ids, want in zip(streams, expected):  # warm per-process caches
            np.testing.assert_array_equal(server.predict(ids), want)
        stats = server.stats()
    assert stats["served_requests"] == 2 * len(streams)
    # Warm repeats hit the all-logits fast path inside the worker processes.
    assert stats["fast_path_batches"] >= 1
    _assert_no_leaked_children()


def test_mp_concurrent_clients_bit_identical(dataset):
    """Coalesced concurrent requests against forked shards get exact rows."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    rng = np.random.default_rng(11)
    streams = [
        rng.integers(0, dataset.graph.num_nodes, size=6) for _ in range(4)
    ]
    errors = []
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=2.0, byte_budget=1 << 20)
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
    _assert_no_leaked_children()


# --------------------------------------------------------------------------- #
# cross-process state propagation
# --------------------------------------------------------------------------- #
def test_mp_update_reaches_every_worker_process(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90, 110]
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert server.version == 1

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data + 0.25

        assert server.update(perturb) == 2
        # The parent model mutated; the children must serve the *new*
        # weights even though they forked the old ones.
        new_reference = _reference_logits(model, dataset.graph, dataset.features)
        assert not np.array_equal(new_reference, reference)
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["updates"] == 1
    for worker in stats["workers"]:
        assert worker["embedding_cache"]["version"] == 2
        assert worker["embedding_cache"]["invalidations"] >= 1
    _assert_no_leaked_children()


def test_mp_store_replace_propagates_to_forked_workers(dataset):
    """replace() on the parent's store reaches children before the next batch."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90]
    store = DenseStore(dataset.features.copy())
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, byte_budget=1 << 20)
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
    _assert_no_leaked_children()


@pytest.mark.parametrize("form", ["global-kv", "global-dense"])
def test_mp_feature_forms_serve_identical_rows(dataset, form):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [7, 42, 100, 110]
    shards = _make_shards(dataset, 2)
    features = DenseStore(dataset.features) if form == "global-dense" else dataset.features
    config = ServingConfig(backend="mp", window_ms=0.0)
    with create_server(model, shards, features, config) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    if form == "global-kv":
        for worker in stats["workers"]:
            assert worker["feature_store"]
        assert stats["feature_store"]
    else:
        assert stats["feature_store"] is None
    _assert_no_leaked_children()


# --------------------------------------------------------------------------- #
# crash handling: a dead shard fails fast, leaks nothing
# --------------------------------------------------------------------------- #
def test_mp_dead_shard_fails_requests_with_rank_no_hang_no_leak(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, comm_timeout_s=60.0)
    server = create_server(model, shards, dataset.features, config).start()
    try:
        server.predict([1, 2, 3])  # healthy first
        server.executor.cluster.inject_crash(0)
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 0") as excinfo:
            server.predict([4, 5, 6])
        # Prompt failure: liveness polling, not the comm timeout, caught it.
        assert time.monotonic() - start < _NO_HANG_S
        assert "rank 0" in str(excinfo.value)
        # Later requests fail immediately on the poisoned cluster.
        start = time.monotonic()
        with pytest.raises(WorkerFailedError, match="rank 0"):
            server.predict([7])
        assert time.monotonic() - start < 5.0
        stats = server.stats()
        assert stats["processes"]["alive"][0] is False
        assert stats["processes"]["failure"] is not None
    finally:
        server.stop()
    assert not server.running
    _assert_no_leaked_children()


def test_mp_dead_shard_fails_inflight_futures(dataset):
    """Futures already enqueued when the shard dies resolve with the error."""
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, comm_timeout_s=60.0)
    server = create_server(model, shards, dataset.features, config).start()
    try:
        server.predict([0])
        server.executor.cluster.inject_crash(1)
        futures = [server.predict_async([i, i + 1]) for i in range(4)]
        start = time.monotonic()
        for future in futures:
            with pytest.raises(WorkerFailedError, match="rank 1"):
                future.result(_NO_HANG_S)
        assert time.monotonic() - start < _NO_HANG_S
    finally:
        server.stop()
    _assert_no_leaked_children()


def test_mp_arena_exhaustion_fails_start_naming_the_rank(dataset, monkeypatch):
    """A shard that cannot publish its feature rows fails start(), cleanly."""
    # the capacity rule is derived from the machine; shrinking it is a test
    # seam, not a setting
    monkeypatch.setattr(plane, "_arena_capacity", lambda world_size: 1024)
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0)
    server = create_server(model, shards, dataset.features, config)
    start = time.monotonic()
    with pytest.raises(WorkerFailedError, match=r"rank \d: MemoryError\(.rank \d: cannot publish"):
        server.start()
    assert time.monotonic() - start < _NO_HANG_S
    _assert_no_leaked_children()


def test_mp_stop_reaps_workers_even_when_idle_or_dead(dataset):
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0)
    server = create_server(model, shards, dataset.features, config).start()
    processes = server.executor.cluster.processes
    server.stop()  # graceful: stop sentinels drain the request loops
    assert not server.running
    for process in processes:
        assert not process.is_alive()
    _assert_no_leaked_children()
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()


def test_mp_stats_keep_thread_backend_shape_plus_processes(dataset):
    model = _make_model(dataset)
    ids = [3, 17, 90]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as local:
        local.predict(ids)
        local_stats = local.stats()
    shards = _make_shards(dataset, 2)
    config = ServingConfig(backend="mp", window_ms=0.0, byte_budget=1 << 20)
    with create_server(model, shards, dataset.features, config) as server:
        server.predict(ids)
        server.predict(ids)
        stats = server.stats()
    # One shared stats() shape; the mp backend adds only the process table.
    assert set(stats) - set(local_stats) == {"processes"}
    assert stats["backend"] == "mp"
    workers = stats["workers"]
    assert [w["rank"] for w in workers] == [0, 1]
    for worker in workers:
        assert {"rank", "embedding_cache", "feature_store", "comm"} <= set(worker)
    agg = stats["embedding_cache"]
    assert agg["hits"] == sum(w["embedding_cache"]["hits"] for w in workers)
    # stats() after stop serves the final pre-stop worker snapshot.
    assert stats["processes"]["alive"] == [True, True]
    post = server.stats()
    assert post["workers"] == workers
    assert post["processes"]["alive"] == [False, False]
    _assert_no_leaked_children()


@pytest.mark.parametrize("byte_budget", [None, 1 << 20])
def test_mp_and_thread_shards_book_the_same_wire_bytes(dataset, byte_budget):
    """One request sequence, two transports: each worker's serving counters
    agree — halo rows fetched, and the frontier allgathers of the cooperative
    walk, which do move bytes on either backend — cold, and partly warm."""
    model = _make_model(dataset)
    shards = _make_shards(dataset, 2)
    streams = [[5], [3, 1, 4, 1, 5], [0, 119], list(range(30)), [5, 31], list(range(25, 40))]
    comm = {}
    for backend in ("distributed", "mp"):
        config = ServingConfig(backend=backend, window_ms=0.0, byte_budget=byte_budget)
        with create_server(model, shards, dataset.features, config) as server:
            for ids in streams:
                server.predict(ids)
            comm[backend] = [worker["comm"] for worker in server.stats()["workers"]]
    for thread_worker, mp_worker in zip(comm["distributed"], comm["mp"]):
        assert mp_worker["frontier_bytes_received"] == thread_worker["frontier_bytes_received"] > 0
        assert mp_worker["halo_bytes_received"] == thread_worker["halo_bytes_received"] > 0
    _assert_no_leaked_children()
