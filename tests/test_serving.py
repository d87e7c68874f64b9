"""Online inference serving: parity under concurrency, caching, invalidation.

The subsystem contract under test (``repro/serving/``):

* every logit row served by :class:`~repro.serving.Server` is
  **bit-identical** to the corresponding row of the full-graph
  ``model(graph, features)`` eval-mode forward — under concurrent clients,
  with the embedding cache on or off, with the micro-batch window on or off,
  and across version-bump invalidation;
* a repeated request topology builds **zero** new edge plans (the shared
  structural plan cache satisfies every block);
* the historical-embedding cache truncates repeat traffic (logits fast
  path), evicts by bytes, and invalidates atomically on version bump;
* model updates serialize with request batches: served rows always come
  from exactly one (weights, cache-version) pair.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import make_sbm_dataset
from repro.nn.models import GATNet, GraphSageNet
from repro.serving import EmbeddingCache, ServingConfig, create_server
from repro.tensor import Tensor, no_grad
from repro.tensor import edge_plan as edge_plan_mod
from repro.utils.seed import set_seed


@pytest.fixture
def dataset():
    return make_sbm_dataset(
        name="serving-sbm",
        num_nodes=200,
        num_classes=4,
        feature_dim=12,
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


def _reference_logits(model, graph, features):
    model.eval()
    with no_grad():
        return model(graph, Tensor(features)).data


# --------------------------------------------------------------------------- #
# serving parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["sage", "gat"])
@pytest.mark.parametrize("window_ms", [0.0, 2.0])
@pytest.mark.parametrize("cache_bytes", [None, 1 << 20])
def test_served_logits_bit_identical(dataset, kind, window_ms, cache_bytes):
    model = _make_model(dataset, kind)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    config = ServingConfig(window_ms=window_ms, byte_budget=cache_bytes)
    with create_server(model, dataset.graph, dataset.features, config) as server:
        for ids in ([5], [3, 1, 4, 1, 5], [0, 199], list(range(40))):
            np.testing.assert_array_equal(server.predict(ids), reference[ids])


@pytest.mark.parametrize("window_ms", [0.0, 2.0])
@pytest.mark.parametrize("cache_bytes", [None, 1 << 20])
def test_concurrent_clients_bit_identical(dataset, window_ms, cache_bytes):
    """N threads with overlapping skewed requests all get exact rows."""
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    rng = np.random.default_rng(7)
    # Popularity skew: half of all requests land on a 10-node hot set.
    hot = rng.choice(dataset.graph.num_nodes, size=10, replace=False)
    streams = []
    for _ in range(6):
        cold = rng.integers(0, dataset.graph.num_nodes, size=8)
        mixed = np.concatenate([cold, rng.choice(hot, size=8)])
        rng.shuffle(mixed)
        streams.append(mixed)
    errors = []

    config = ServingConfig(window_ms=window_ms, byte_budget=cache_bytes)
    with create_server(model, dataset.graph, dataset.features, config) as server:

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


def test_request_rows_follow_request_order(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    with create_server(model, dataset.graph, dataset.features) as server:
        ids = [9, 2, 9, 0, 2]  # duplicates and non-ascending order
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert server.predict(np.array([], dtype=np.int64)).size == 0


# --------------------------------------------------------------------------- #
# micro-batching
# --------------------------------------------------------------------------- #
def test_window_coalesces_async_requests(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=200.0),
    ) as server:
        futures = [server.predict_async([i, i + 1]) for i in range(12)]
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(30), reference[[i, i + 1]])
        stats = server.stats()
    # 12 requests submitted well inside one 200 ms window: strictly fewer
    # executions than requests, and at least one multi-request batch.
    assert stats["batches"] < stats["served_requests"]
    assert stats["max_requests_in_batch"] >= 2


def test_window_zero_serves_one_request_per_batch(dataset):
    model = _make_model(dataset)
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0),
    ) as server:
        for i in range(5):
            server.predict([i])
        stats = server.stats()
    assert stats["batches"] == 5
    assert stats["max_requests_in_batch"] == 1


def test_max_batch_seeds_closes_window_early(dataset):
    model = _make_model(dataset)
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=500.0, max_batch_seeds=4),
    ) as server:
        futures = [server.predict_async([i]) for i in range(8)]
        for future in futures:
            future.result(30)
        stats = server.stats()
    # 8 single-seed requests against a 4-seed cap: no batch may exceed it,
    # and the 500 ms window alone would otherwise have merged all 8.
    assert stats["batches"] >= 2
    assert stats["seeds_executed"] <= stats["batches"] * 4


# --------------------------------------------------------------------------- #
# plan-cache warmth (zero plan builds on repeated topology)
# --------------------------------------------------------------------------- #
def test_repeated_topology_builds_zero_plans(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [7, 11, 42]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0),
    ) as server:
        server.predict(ids)  # builds (or reuses) this topology's plans
        built = edge_plan_mod.build_counter
        hits_before = edge_plan_mod.shared_plan_cache().stats()["hits"]
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert edge_plan_mod.build_counter == built
        stats = server.stats()
    assert stats["plan_cache"]["hits"] > hits_before


# --------------------------------------------------------------------------- #
# embedding cache behaviour through the server
# --------------------------------------------------------------------------- #
def test_repeat_request_takes_logits_fast_path(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as server:
        server.predict(ids)
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        stats = server.stats()
    assert stats["fast_path_batches"] >= 1
    # Frontier histogram: one full-depth batch (layer 0), one all-cached
    # batch (layer num_layers).
    assert stats["frontier_layers"][0] == 1
    assert stats["frontier_layers"][model.num_layers] == 1
    assert stats["embedding_cache"]["hits"] >= len(ids)


def test_version_bump_invalidates_and_reserves_fresh_rows(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    ids = [3, 17, 90]
    with create_server(
        model, dataset.graph, dataset.features,
        ServingConfig(window_ms=0.0, byte_budget=1 << 20),
    ) as server:
        np.testing.assert_array_equal(server.predict(ids), reference[ids])
        assert server.version == 1

        def perturb(m):
            for param in m.parameters():
                param.data[...] = param.data + 0.25

        assert server.update(perturb) == 2
        with no_grad():
            new_reference = model(dataset.graph, Tensor(dataset.features)).data
        assert not np.array_equal(new_reference, reference)
        # Post-update requests serve the new weights, never stale rows.
        np.testing.assert_array_equal(server.predict(ids), new_reference[ids])
        stats = server.stats()
    assert stats["embedding_cache"]["version"] == 2
    assert stats["embedding_cache"]["invalidations"] == 1
    assert stats["updates"] == 1


def test_update_failure_propagates_and_server_survives(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    with create_server(model, dataset.graph, dataset.features) as server:

        def boom(_model):
            raise RuntimeError("bad checkpoint")

        with pytest.raises(RuntimeError, match="bad checkpoint"):
            server.update(boom)
        np.testing.assert_array_equal(server.predict([5]), reference[[5]])


# --------------------------------------------------------------------------- #
# lifecycle + validation
# --------------------------------------------------------------------------- #
def test_lifecycle_and_input_validation(dataset):
    model = _make_model(dataset)
    server = create_server(model, dataset.graph, dataset.features)
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    server.start()
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([dataset.graph.num_nodes])
    with pytest.raises(ValueError, match="node_ids"):
        server.predict([-1])
    server.stop()
    with pytest.raises(RuntimeError, match="not running"):
        server.predict([0])
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()

    with pytest.raises(ValueError, match="rows"):
        create_server(model, dataset.graph, dataset.features[:-1])
    with pytest.raises(ValueError, match="window_ms"):
        create_server(model, dataset.graph, dataset.features, ServingConfig(window_ms=-1.0))
    with pytest.raises(ValueError, match="forward_layer"):
        create_server(object(), dataset.graph, dataset.features)
    with pytest.raises(ValueError, match="Graph"):
        create_server(model, object(), dataset.features)


def test_stop_drains_queued_requests(dataset):
    model = _make_model(dataset)
    reference = _reference_logits(model, dataset.graph, dataset.features)
    server = create_server(model, dataset.graph, dataset.features).start()
    futures = [server.predict_async([i]) for i in range(6)]
    server.stop()
    for i, future in enumerate(futures):
        np.testing.assert_array_equal(future.result(30), reference[[i]])


# --------------------------------------------------------------------------- #
# EmbeddingCache unit behaviour
# --------------------------------------------------------------------------- #
def _cached(cache, layer, nodes):
    """Whether every one of ``nodes`` is cached at ``layer`` (one probe)."""
    return bool(cache.lookup_partial(layer, np.asarray(nodes))[0].all())


def test_embedding_cache_roundtrip_per_row():
    cache = EmbeddingCache(1 << 20)
    values = np.arange(12, dtype=np.float32).reshape(3, 4)
    cache.put(1, np.array([5, 9, 2]), values)
    found, got = cache.lookup_partial(1, np.array([9, 2]))
    assert found.tolist() == [True, True]
    np.testing.assert_array_equal(got, values[[1, 2]])
    found, got = cache.lookup_partial(1, np.array([5, 7]))  # 7 missing, 5 still served
    assert found.tolist() == [True, False]
    np.testing.assert_array_equal(got, values[[0]])
    found, got = cache.lookup_partial(2, np.array([5]))  # other layer
    assert found.tolist() == [False] and got is None
    stats = cache.stats()
    assert stats["hits"] == 3 and stats["misses"] == 2
    assert stats["rows"] == 3 and stats["insertions"] == 3


def test_embedding_cache_rows_are_copies():
    cache = EmbeddingCache(1 << 20)
    values = np.ones((1, 4), dtype=np.float32)
    cache.put(1, np.array([0]), values)
    values[...] = -1.0
    np.testing.assert_array_equal(
        cache.lookup_partial(1, np.array([0]))[1], np.ones((1, 4), dtype=np.float32)
    )


def test_embedding_cache_evicts_by_bytes_lru():
    row_bytes = 4 * 4  # float32 width 4
    cache = EmbeddingCache(3 * row_bytes)
    cache.put(1, np.array([0, 1, 2]), np.zeros((3, 4), dtype=np.float32))
    cache.lookup_partial(1, np.array([0]))  # refresh 0: node 1 becomes LRU
    cache.put(1, np.array([3]), np.ones((1, 4), dtype=np.float32))
    assert not _cached(cache, 1, [1])  # evicted
    assert _cached(cache, 1, [0])
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["current_bytes"] == 3 * row_bytes


def test_embedding_cache_oversized_batch_does_not_stick():
    cache = EmbeddingCache(8)
    cache.put(1, np.array([0, 1]), np.zeros((2, 4), dtype=np.float32))
    assert len(cache) == 0
    assert cache.stats()["current_bytes"] == 0


def test_embedding_cache_version_bump_drops_rows():
    cache = EmbeddingCache(1 << 20)
    cache.put(1, np.array([0]), np.zeros((1, 4), dtype=np.float32))
    assert cache.bump_version() == 2
    assert len(cache) == 0
    assert not _cached(cache, 1, [0])
    cache.put(1, np.array([0]), np.zeros((1, 4), dtype=np.float32))
    assert cache.stats()["rows"] == 1


def test_embedding_cache_validates():
    with pytest.raises(ValueError, match="capacity_bytes"):
        EmbeddingCache(0)
    cache = EmbeddingCache(1 << 10)
    with pytest.raises(ValueError, match="rows"):
        cache.put(1, np.array([0, 1]), np.zeros((1, 4), dtype=np.float32))
