"""Tests for the pluggable feature-store layer (:mod:`repro.store`).

Covers the LRUDict byte-budget edge cases, the store backends (dense,
partitioned KV, and the protocol-only ``ReferenceStore``), and the
store-vs-dense bit-parity matrix across models (sage/gat) and the store
consumers (layer-wise inference / serving).
"""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.datasets import make_sbm_dataset
from repro.distributed import run_distributed
from repro.distributed.mp_backend import run_multiprocess
from repro.partition import PartitionBook
from repro.sample.inference import LayerWiseInference
from repro.sample.loader import MiniBatchDataLoader, NeighborSamplingConfig
from repro.sample.neighbor import NeighborSampler
from repro.serving import ServingConfig, create_server
from repro.store import DenseStore, FeatureStore, PartitionedKVStore, as_feature_store
from repro.training import FullBatchTrainer, TrainingConfig
from repro.utils.lru import LRUDict
from repro.utils.seed import set_seed
from reference_kernels import ReferenceStore


@pytest.fixture(scope="module")
def dataset():
    return make_sbm_dataset(
        name="featstore-test", num_nodes=160, num_classes=3, feature_dim=8,
        p_in=0.12, p_out=0.015, noise=1.5, train_frac=0.5, val_frac=0.2,
        test_frac=0.3, seed=2,
    )


def _make_model(kind, in_dim, num_classes):
    if kind == "sage":
        return nn.GraphSageNet(in_dim, 16, num_classes, num_layers=2,
                               dropout=0.0)
    return nn.GATNet(in_dim, 4, num_classes, num_layers=2, num_heads=2,
                     dropout=0.0, use_batch_norm=False)


# --------------------------------------------------------------------------- #
# LRUDict edge cases
# --------------------------------------------------------------------------- #
class TestLRUDictEdgeCases:
    def test_zero_byte_budget_retains_nothing(self):
        cache = LRUDict(capacity=None, byte_budget=0)
        cache["a"] = np.ones(4, dtype=np.float32)
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.evictions == 1

    def test_oversized_item_does_not_stick_but_observes_eviction(self):
        seen = []
        cache = LRUDict(capacity=None, byte_budget=8,
                        on_evict=lambda k, v: seen.append(k))
        cache["small"] = np.ones(1, dtype=np.float32)  # 4 bytes: fits
        cache["huge"] = np.ones(100, dtype=np.float32)  # 400 bytes: never fits
        assert "small" not in cache and "huge" not in cache
        # LRU order: "small" went first, then the oversized entry itself.
        assert seen == ["small", "huge"]
        assert cache.current_bytes == 0

    def test_eviction_callback_reentrancy(self):
        # An on_evict that re-inserts into the cache must observe consistent
        # state (the evictee already removed) and must not loop forever.
        cache = LRUDict(capacity=2)

        def resurrect(key, value):
            if key == "a":  # re-insert once, under a different key
                cache["a2"] = value
        cache._on_evict = resurrect
        cache["a"] = 1
        cache["b"] = 2
        cache["c"] = 3  # evicts "a" -> callback inserts "a2" -> evicts "b"
        assert set(cache) == {"c", "a2"}
        assert cache.evictions == 2

    def test_byte_accounting_on_overwrite_and_delete(self):
        cache = LRUDict(capacity=None, byte_budget=100)
        cache["k"] = np.ones(5, dtype=np.float32)   # 20 bytes
        cache["k"] = np.ones(10, dtype=np.float32)  # replaces: 40 bytes
        assert cache.current_bytes == 40
        del cache["k"]
        assert cache.current_bytes == 0 and len(cache) == 0

    def test_requires_some_bound_and_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUDict(capacity=None, byte_budget=None)
        with pytest.raises(ValueError):
            LRUDict(0)
        with pytest.raises(ValueError):
            LRUDict(capacity=None, byte_budget=-1)

    def test_read_refreshes_recency(self):
        cache = LRUDict(capacity=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"]
        cache["c"] = 3  # "b" is now LRU
        assert set(cache) == {"a", "c"}


# --------------------------------------------------------------------------- #
# backends: dispatch, dense
# --------------------------------------------------------------------------- #
class TestStoreDispatch:
    def test_as_feature_store_passthrough_and_wrap(self):
        matrix = np.ones((4, 2), dtype=np.float32)
        store = as_feature_store(matrix)
        assert isinstance(store, DenseStore)
        assert as_feature_store(store) is store
        with pytest.raises(ValueError, match="2-D"):
            as_feature_store(np.ones(4))  # 1-D
        with pytest.raises(ValueError, match="2-D"):
            as_feature_store("nope")

    def test_dense_store_gather_and_validation(self):
        matrix = np.arange(12, dtype=np.float32).reshape(6, 2)
        store = DenseStore(matrix)
        assert store.gather(None) is matrix  # zero-copy full read
        assert np.array_equal(store.gather(np.array([3, 0, 3])),
                              matrix[[3, 0, 3]])
        with pytest.raises(IndexError):
            store.gather(np.array([6]))

    def test_dense_store_replace_bumps_version(self):
        store = DenseStore(np.zeros((3, 2), dtype=np.float32))
        v0 = store.version
        store.replace(np.ones((3, 2), dtype=np.float32))
        assert store.version == v0 + 1
        assert float(store.gather(None)[0, 0]) == 1.0

    def test_dense_store_rejects_a_non_2d_matrix(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            DenseStore(np.zeros(4, dtype=np.float32))

    def test_dense_store_replace_rejects_another_width(self):
        store = DenseStore(np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="2 columns"):
            store.replace(np.zeros((3, 5), dtype=np.float32))
        assert store.version == 1  # a refused replace is no mutation

    def test_reads_keep_the_version_and_bump_advances_it(self):
        matrix = np.zeros((3, 2), dtype=np.float32)
        store = DenseStore(matrix)
        store.gather(None), store.gather(np.array([2, 0]))
        assert store.version == 1
        matrix[1] = 7.0  # in-place mutation, announced by the caller
        assert store.bump_version() == store.version == 2
        assert float(store.gather(np.array([1]))[0, 0]) == 7.0

    @pytest.mark.parametrize("backend", [DenseStore, ReferenceStore],
                             ids=["dense", "reference"])
    def test_gather_validates_ids(self, backend):
        store = backend(np.arange(12, dtype=np.float32).reshape(6, 2))
        assert store.gather(np.array([], dtype=np.int64)).shape == (0, 2)
        with pytest.raises(ValueError, match="1-D"):
            store.gather(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(IndexError, match=r"\[0, 6\)"):
            store.gather(np.array([1, -1]))
        with pytest.raises(IndexError, match=r"\[0, 6\)"):
            store.gather(np.array([6]))

    def test_the_protocol_alone_makes_a_store(self):
        with pytest.raises(TypeError):
            FeatureStore()  # abstract
        matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
        store = ReferenceStore(matrix)
        assert as_feature_store(store) is store
        assert (store.num_rows, store.dim, store.dtype) == (3, 2, np.float32)
        assert store.stats() == {}
        assert repr(store) == ("ReferenceStore(num_rows=3, dim=2, dtype=float32, "
                               "version=1)")
        assert np.array_equal(store.gather(None), matrix)
        assert not np.shares_memory(store.gather(None), store.gather(None))


# --------------------------------------------------------------------------- #
# partitioned KV store (2-worker thread cluster)
# --------------------------------------------------------------------------- #
def _resident_rows_worker(rank, comm, *, matrix, book):
    """A KV store's resident rows against the block its rank published."""
    own = np.asarray(book.nodes_of(rank))
    store = PartitionedKVStore(comm, book, matrix[own], cache_bytes=None)
    published = comm._read(rank, store._key())
    shared = bool(np.shares_memory(store._local, published))
    comm.barrier()
    ids = np.array([0, 7, 3, 58, 3, 21, 40])
    rows = store.gather(ids), store.gather(None), store.fetch_rows(rank, np.arange(5)[::-1])
    comm.barrier()
    store.replace(matrix[own] * 2.0)
    replaced = bool(np.shares_memory(store._local, comm._read(rank, store._key())))
    comm.barrier()
    rows += (store.gather(ids),)
    comm.barrier()
    return shared, replaced, rows


class TestPartitionedKVStore:
    @pytest.mark.parametrize("run", [run_distributed, run_multiprocess],
                             ids=["threads", "processes"])
    def test_resident_rows_are_the_published_block(self, matrix_and_book, run):
        # A forked shard holds its rows once: the store keeps the arena's
        # view, not a private copy beside it, and reads the same rows.
        matrix, book = matrix_and_book
        results = run(_resident_rows_worker, 2, timeout_s=120, matrix=matrix, book=book)
        ids = np.array([0, 7, 3, 58, 3, 21, 40])
        for rank, (shared, replaced, rows) in enumerate(results.results):
            assert shared and replaced
            own = np.asarray(book.nodes_of(rank))
            expected = (matrix[ids], matrix, matrix[own[np.arange(5)[::-1]]],
                        matrix[ids] * 2.0)
            for got, want in zip(rows, expected):
                np.testing.assert_array_equal(got, want)

    @pytest.fixture(scope="class")
    def matrix_and_book(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((60, 4)).astype(np.float32)
        assignment = (np.arange(60) % 2).astype(np.int64)
        return matrix, PartitionBook(assignment, 2)

    def test_gather_parity_dedup_and_telemetry(self, matrix_and_book):
        matrix, book = matrix_and_book
        # Remote ids repeat within the request: rows must be deduplicated
        # into one coalesced fetch per owner, and the result must be
        # bit-identical to a dense gather.
        requests = [np.array([0, 1, 3, 1, 58, 3]),
                    np.array([2, 2, 5, 17, 17, 40])]

        def worker(rank, comm):
            store = PartitionedKVStore(comm, book, matrix[book.nodes_of(rank)],
                                       cache_bytes=1 << 16)
            comm.barrier()
            ids = requests[rank]
            first = store.gather(ids)
            again = store.gather(ids)  # second pass: all remote rows cached
            comm.barrier()
            stats = store.stats()
            comm_stats = comm.stats.snapshot()
            local = store.gather(book.nodes_of(rank))  # own rows: no fetch
            return first, again, stats, comm_stats, local

        result = run_distributed(worker, 2, timeout_s=120)
        for rank, (first, again, stats, comm_stats, local) in enumerate(result.results):
            assert np.array_equal(local, matrix[book.nodes_of(rank)])
            assert np.array_equal(first, matrix[requests[rank]])
            assert np.array_equal(again, first)
            remote = len({i for i in requests[rank]
                          if book.assignment[i] != rank})
            # One coalesced fetch on the cold pass, none on the warm pass.
            assert stats["fetch_calls"] == 1
            assert stats["cache_misses"] == remote
            assert stats["cache_hits"] == remote
            assert stats["bytes_saved"] == stats["bytes_fetched"]
            assert comm_stats["cache_hit_rows"] == remote
            assert "recv:feature_fetch" in comm_stats

    def test_cache_respects_byte_budget(self, matrix_and_book):
        matrix, book = matrix_and_book
        row_bytes = 4 * matrix.dtype.itemsize
        budget = 3 * row_bytes  # room for three remote rows

        def worker(rank, comm):
            store = PartitionedKVStore(comm, book, matrix[book.nodes_of(rank)],
                                       cache_bytes=budget)
            comm.barrier()
            other = 1 - rank
            remote_ids = book.nodes_of(other)[:10]
            store.gather(np.asarray(remote_ids))
            comm.barrier()
            stats = store.stats()
            return stats

        result = run_distributed(worker, 2, timeout_s=120)
        for stats in result.results:
            assert stats["cache_bytes"] <= budget
            assert stats["cache_rows"] == 3
            assert stats["cache_evictions"] == 7

    def test_cache_none_disables_caching(self, matrix_and_book):
        matrix, book = matrix_and_book

        def worker(rank, comm):
            store = PartitionedKVStore(comm, book, matrix[book.nodes_of(rank)],
                                       cache_bytes=None)
            comm.barrier()
            ids = book.nodes_of(1 - rank)[:4]
            store.gather(np.asarray(ids))
            store.gather(np.asarray(ids))
            comm.barrier()
            stats = store.stats()
            return stats

        result = run_distributed(worker, 2, timeout_s=120)
        for stats in result.results:
            assert stats["cache_hits"] == 0
            assert stats["fetch_calls"] == 2
            assert "cache_rows" not in stats

    def test_replace_bumps_version_and_invalidates(self, matrix_and_book):
        matrix, book = matrix_and_book

        def worker(rank, comm):
            local = matrix[book.nodes_of(rank)]
            store = PartitionedKVStore(comm, book, local, cache_bytes=1 << 16)
            comm.barrier()
            ids = np.asarray(book.nodes_of(1 - rank)[:3])
            old = store.gather(ids)
            comm.barrier()
            store.replace(local * 2.0)
            comm.barrier()
            new = store.gather(ids)
            comm.barrier()
            version = store.version
            return old, new, version

        result = run_distributed(worker, 2, timeout_s=120)
        for old, new, version in result.results:
            assert version == 2
            assert np.array_equal(new, old * 2.0)  # not served from stale cache

    def test_validates_local_rows(self, matrix_and_book):
        matrix, book = matrix_and_book

        def worker(rank, comm):
            try:
                PartitionedKVStore(comm, book, matrix)  # full matrix: wrong count
            except ValueError as exc:
                return str(exc)
            return None

        result = run_distributed(worker, 2, timeout_s=120)
        assert all("owns" in msg for msg in result.results)

    def test_concurrent_fetch_rows_share_one_cache(self, matrix_and_book):
        # Several threads (a loader's prefetch workers) fetch through one
        # store at once: overlapping rows, a budget of a few rows.  More
        # threads than cores and a short switch interval make a lost counter
        # update or an unlocked cache change show.
        matrix, book = matrix_and_book
        budget = 3 * 4 * matrix.dtype.itemsize
        num_threads = 4

        def worker(rank, comm):
            store = PartitionedKVStore(comm, book, matrix[book.nodes_of(rank)],
                                       cache_bytes=budget)
            comm.barrier()
            out = None
            if rank == 0:
                owner_rows = matrix[book.nodes_of(1)]
                probed, failures = [0] * num_threads, []

                def consume(thread):
                    rng = np.random.default_rng(thread)
                    for _ in range(200):
                        rows = rng.choice(8, size=5)
                        if thread % 2:  # half the threads send unique ascending rows
                            rows = np.unique(rows)
                        got = store.fetch_rows(1, rows)
                        probed[thread] += len(np.unique(rows))
                        if not np.array_equal(got, owner_rows[rows]):
                            failures.append(("rows", rows))
                        if store.stats()["cache_bytes"] > budget:
                            failures.append(("bytes", store.stats()["cache_bytes"]))

                threads = [threading.Thread(target=consume, args=(t,))
                           for t in range(num_threads)]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                finally:
                    sys.setswitchinterval(interval)
                alive = [thread.is_alive() for thread in threads]
                out = alive, failures, sum(probed), store.stats()
            comm.barrier()
            return out

        alive, failures, probed, stats = run_distributed(worker, 2, timeout_s=120).results[0]
        assert not any(alive)
        assert failures == []
        assert stats["cache_hits"] + stats["cache_misses"] == probed
        assert stats["cache_hits"] > 0 and stats["cache_evictions"] > 0
        assert stats["cache_bytes"] <= budget and stats["cache_rows"] <= 3


# --------------------------------------------------------------------------- #
# loader validation (bugfix satellite)
# --------------------------------------------------------------------------- #
class TestLoaderSetFeaturesValidation:
    def _loader(self, dataset):
        sampler = NeighborSampler(dataset.graph, (3, 3), seed=0)
        return MiniBatchDataLoader(sampler, dataset.train_indices(),
                                   batch_size=16)

    def test_row_count_mismatch_raises_eagerly(self, dataset):
        loader = self._loader(dataset)
        wrong = np.zeros((dataset.graph.num_nodes - 1, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="one row per graph node"):
            loader.set_features(wrong)

    def test_non_numeric_dtype_raises(self, dataset):
        loader = self._loader(dataset)
        bad = np.full((dataset.graph.num_nodes, 2), "x", dtype=object)
        with pytest.raises(TypeError):
            loader.set_features(bad)

    def test_store_accepted_and_cleared(self, dataset):
        loader = self._loader(dataset)
        store = DenseStore(np.zeros(
            (dataset.graph.num_nodes, 4), dtype=np.float32))
        loader.set_features(store)
        loader.set_features(None)

    @pytest.mark.parametrize("backend", [DenseStore, ReferenceStore],
                             ids=["dense", "reference"])
    def test_prefetched_inputs_are_the_store_rows(self, dataset, backend):
        sampler = NeighborSampler(dataset.graph, (3, 3), seed=0)
        loader = MiniBatchDataLoader(sampler, dataset.train_indices(),
                                     batch_size=16, num_workers=2)
        store = backend(dataset.features)
        loader.set_features(store)
        batches = list(loader.iter_epoch(0))
        assert len(batches) == len(loader) > 1
        for batch in batches:
            np.testing.assert_array_equal(
                batch.inputs, dataset.features[batch.input_nodes])
        if backend is ReferenceStore:
            assert store.gathers == len(batches)


# --------------------------------------------------------------------------- #
# store-vs-dense bit-parity matrix
# --------------------------------------------------------------------------- #
class TestStoreParityMatrix:
    """DenseStore runs must be bit-identical to raw matrix runs across
    models and the store consumers."""

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "full_batch"])
    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_single_machine_sampled_and_layerwise(self, dataset, kind, sampled):
        # Training reads the dataset's matrix; layer-wise inference of the
        # trained model through a store gives the trainer's own logits.
        set_seed(3)
        model = _make_model(kind, dataset.feature_dim, dataset.num_classes)
        trainer = FullBatchTrainer(model, dataset, TrainingConfig(
            num_epochs=2, lr=0.01, seed=1, eval_every=0,
            eval_inference="layerwise", eval_batch_size=48,
            sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32)
            if sampled else None))
        trainer.train()
        _, logits = trainer.evaluate()

        engine = LayerWiseInference(model, dataset.graph, batch_size=48)
        assert np.array_equal(engine.run(DenseStore(dataset.features)), logits)

    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_serving_store_parity(self, dataset, kind):
        set_seed(4)
        model = _make_model(kind, dataset.feature_dim, dataset.num_classes)
        model.eval()
        seeds = [0, 7, 31, 7]
        with create_server(model, dataset.graph, dataset.features,
                           ServingConfig(window_ms=0.0)) as plain:
            raw = plain.predict(seeds)
        with create_server(model, dataset.graph, DenseStore(dataset.features),
                           ServingConfig(window_ms=0.0, byte_budget=1 << 20)) as stored:
            via_store = stored.predict(seeds)
        assert np.array_equal(raw, via_store)

    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_reference_store_parity(self, dataset, kind):
        """A store with nothing beyond the protocol (every read a fresh
        copy) serves both consumers the matrix's bits."""
        set_seed(5)
        model = _make_model(kind, dataset.feature_dim, dataset.num_classes)
        engine = LayerWiseInference(model, dataset.graph, batch_size=40)
        assert np.array_equal(engine.run(ReferenceStore(dataset.features)),
                              engine.run(dataset.features))
        model.eval()
        seeds = [2, 9, 2, 150]
        with create_server(model, dataset.graph, dataset.features,
                           ServingConfig(window_ms=0.0)) as plain:
            raw = plain.predict(seeds)
        with create_server(model, dataset.graph, ReferenceStore(dataset.features),
                           ServingConfig(window_ms=0.0, byte_budget=1 << 20)) as stored:
            assert np.array_equal(stored.predict(seeds), raw)
            assert np.array_equal(stored.predict(seeds), raw)  # from the cache

    def test_layerwise_inference_accepts_store(self, dataset):
        set_seed(6)
        model = _make_model("sage", dataset.feature_dim, dataset.num_classes)
        engine = LayerWiseInference(model, dataset.graph, batch_size=40)
        direct = engine.run(dataset.features)
        stored = engine.run(DenseStore(dataset.features))
        assert np.array_equal(direct, stored)


# --------------------------------------------------------------------------- #
# serving version composition
# --------------------------------------------------------------------------- #
class TestServingStoreVersion:
    def test_store_replace_invalidates_cached_results(self, dataset):
        set_seed(8)
        model = _make_model("sage", dataset.feature_dim, dataset.num_classes)
        model.eval()
        store = DenseStore(dataset.features.copy())
        seeds = [1, 2, 3]
        with create_server(model, dataset.graph, store,
                           ServingConfig(window_ms=0.0, byte_budget=1 << 20)) as server:
            first = server.predict(seeds)
            server.predict(seeds)  # warm the activation cache
            version = server.version
            store.replace(dataset.features * 0.5)
            after = server.predict(seeds)
            stats = server.stats()
        assert stats["store_version"] == store.version
        assert stats["version"] == version + 1  # the store's version folds in
        assert not np.array_equal(first, after)  # not served from stale cache
