"""Tests for the pluggable feature-store layer (:mod:`repro.store`).

Covers the LRUDict byte-budget edge cases, the store backends (dense,
partitioned KV, learnable sparse embeddings), the sparse optimizers, and
the store-vs-dense bit-parity matrix
across models (sage/gat), placements (single machine / 2-worker cluster),
and execution paths (sampled training / layer-wise inference / serving).
"""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.datasets import make_sbm_dataset
from repro.distributed import run_distributed
from repro.partition import PartitionBook
from repro.sample.inference import LayerWiseInference
from repro.sample.loader import MiniBatchDataLoader, NeighborSamplingConfig
from repro.sample.neighbor import NeighborSampler
from repro.serving import ServingConfig, create_server
from repro.store import (
    DenseStore,
    PartitionedKVStore,
    SparseEmbeddingStore,
    as_feature_store,
)
from repro.tensor import Tensor
from repro.tensor.optim import Adam, SparseAdam
from repro.training import DistributedTrainer, FullBatchTrainer, TrainingConfig
from repro.utils.lru import LRUDict
from repro.utils.seed import set_seed


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
# backends: dispatch, dense, sparse embeddings
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
        with pytest.raises(NotImplementedError):
            store.scatter_grad(np.array([0]), np.zeros((1, 2), dtype=np.float32))
        assert not store.trainable

    def test_dense_store_replace_bumps_version(self):
        store = DenseStore(np.zeros((3, 2), dtype=np.float32))
        v0 = store.version
        store.replace(np.ones((3, 2), dtype=np.float32))
        assert store.version == v0 + 1
        assert float(store.gather(None)[0, 0]) == 1.0


class TestSparseEmbeddingStore:
    def test_backward_scatters_without_dense_gradient(self):
        store = SparseEmbeddingStore(100, 4, seed=0)
        ids = np.array([7, 3, 7])
        out = store.gather_tensor(ids)
        assert out.requires_grad
        (out * 2.0).sum().backward()
        unique, summed = store.pending_gradients()
        assert unique.tolist() == [3, 7]
        # Row 7 appears twice in the gather: its gradient accumulates.
        assert np.allclose(summed[unique.tolist().index(7)], 4.0)
        assert np.allclose(summed[unique.tolist().index(3)], 2.0)
        # One backward is one scatter, still pending; the rows have not moved.
        assert store.stats() == {"version": store.version, "scatter_calls": 1,
                                 "pending_scatters": 1}

    def test_apply_row_update_bumps_version_and_touches_only_rows(self):
        store = SparseEmbeddingStore(50, 4, seed=1)
        before = store.weight.copy()
        v0 = store.version
        store.apply_row_update(np.array([5]), np.ones((1, 4), dtype=np.float32))
        assert store.version == v0 + 1
        untouched = np.ones(50, dtype=bool)
        untouched[5] = False
        assert np.array_equal(store.weight[untouched], before[untouched])

    def test_state_dict_roundtrip_and_validation(self):
        store = SparseEmbeddingStore(10, 3, seed=2)
        state = store.state_dict()
        other = SparseEmbeddingStore(10, 3, seed=99)
        other.load_state_dict(state)
        assert np.array_equal(other.weight, store.weight)
        with pytest.raises(ValueError):
            store.scatter_grad(np.array([0]), np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            SparseEmbeddingStore(0, 3)

    def test_seeded_init_is_deterministic(self):
        a = SparseEmbeddingStore(20, 4, seed=5)
        b = SparseEmbeddingStore(20, 4, seed=5)
        c = SparseEmbeddingStore(20, 4, seed=6)
        assert np.array_equal(a.weight, b.weight)
        assert not np.array_equal(a.weight, c.weight)


# --------------------------------------------------------------------------- #
# the sparse optimizer
# --------------------------------------------------------------------------- #
class TestSparseOptimizers:
    def test_only_touched_rows_move(self):
        store = SparseEmbeddingStore(40, 3, seed=0)
        before = store.weight.copy()
        opt = SparseAdam(store, lr=0.1)
        store.scatter_grad(np.array([4, 9]), np.ones((2, 3), dtype=np.float32))
        touched = opt.step()
        assert touched == 2
        mask = np.zeros(40, dtype=bool)
        mask[[4, 9]] = True
        assert np.array_equal(store.weight[~mask], before[~mask])
        assert not np.array_equal(store.weight[mask], before[mask])

    def test_adam_per_row_step_counts_match_dense_adam(self):
        # One row updated twice must match a dense Adam updating a 1-row
        # parameter twice (per-row bias correction, no decay while absent).
        grads = [np.array([[0.5, -1.0]], dtype=np.float32),
                 np.array([[0.25, 0.75]], dtype=np.float32)]
        store = SparseEmbeddingStore(10, 2, weight=np.zeros((10, 2)))
        sparse = SparseAdam(store, lr=0.05)
        param = Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
        dense = Adam([param], lr=0.05)
        for g in grads:
            store.scatter_grad(np.array([6]), g)
            sparse.step()
            param.grad = g.copy()
            dense.step()
        assert np.allclose(store.weight[6], param.data[0], atol=1e-7)
        assert sparse._t[6] == 2 and sparse._t[0] == 0

    def test_grad_scale_matches_prescaled_gradients(self):
        # Adam's first update barely depends on the gradient's size, so a
        # second, unscaled step shows whether the first one was scaled.
        g = np.array([[2.0, -4.0]], dtype=np.float32)
        h = np.array([[1.0, 1.0]], dtype=np.float32)
        weights = []
        for first, scale in ((g, 0.5), (g * 0.5, 1.0), (g, 1.0)):
            store = SparseEmbeddingStore(4, 2, weight=np.zeros((4, 2)))
            opt = SparseAdam(store, lr=0.1)
            store.scatter_grad(np.array([1]), first)
            opt.step(grad_scale=scale)
            store.scatter_grad(np.array([1]), h)
            opt.step()
            weights.append(store.weight)
        assert np.array_equal(weights[0], weights[1])
        assert not np.array_equal(weights[0], weights[2])

    def test_adam_moments_frozen_while_row_absent(self):
        # Row 2 skips a step; it must then match a dense Adam that never
        # saw that step at all.
        g = np.array([[1.0, -2.0]], dtype=np.float32)
        store = SparseEmbeddingStore(5, 2, weight=np.zeros((5, 2)))
        opt = SparseAdam(store, lr=0.1)
        store.scatter_grad(np.array([2]), g)
        opt.step()
        m, v = opt._m[2].copy(), opt._v[2].copy()
        store.scatter_grad(np.array([4]), g)
        opt.step()
        assert np.array_equal(opt._m[2], m) and np.array_equal(opt._v[2], v)
        store.scatter_grad(np.array([2]), g)
        opt.step()
        param = Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
        dense = Adam([param], lr=0.1)
        for _ in range(2):
            param.grad = g.copy()
            dense.step()
        assert np.allclose(store.weight[2], param.data[0], atol=1e-7)

    def test_zero_grad_drops_pending_gradients(self):
        store = SparseEmbeddingStore(6, 2, seed=0)
        before = store.weight.copy()
        opt = SparseAdam(store, lr=0.1)
        store.scatter_grad(np.array([1, 3]), np.ones((2, 2), dtype=np.float32))
        opt.zero_grad()
        assert opt.step() == 0
        assert np.array_equal(store.weight, before)
        assert opt.steps_taken == 0 and opt.rows_updated == 0

    def test_invalid_hyperparameters_raise(self):
        store = SparseEmbeddingStore(3, 2, seed=0)
        with pytest.raises(ValueError):
            SparseAdam(store, lr=0.0)
        with pytest.raises(ValueError):
            SparseAdam(store, betas=(0.9, 1.0))

    def test_rejects_non_trainable_store(self):
        dense = DenseStore(np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(TypeError):
            SparseAdam(dense, lr=0.1)


# --------------------------------------------------------------------------- #
# partitioned KV store (2-worker thread cluster)
# --------------------------------------------------------------------------- #
class TestPartitionedKVStore:
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
            local = store.local_matrix
            store.release()
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
            store.release()
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
            store.release()
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
            store.release()
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
        # The SAR halo prefetch thread and the consuming thread fetch through
        # one store at once: overlapping rows, a budget of a few rows.  More
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
            store.release()
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


# --------------------------------------------------------------------------- #
# store-vs-dense bit-parity matrix
# --------------------------------------------------------------------------- #
class TestStoreParityMatrix:
    """DenseStore / PartitionedKVStore runs must be bit-identical to raw
    matrix runs across models, placements, and execution paths."""

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "full_batch"])
    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_single_machine_sampled_and_layerwise(self, dataset, kind, sampled):
        cfg = dict(num_epochs=2, lr=0.01, seed=1, eval_every=0,
                   eval_inference="layerwise", eval_batch_size=48,
                   sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32)
                   if sampled else None)
        set_seed(3)
        model = _make_model(kind, dataset.feature_dim, dataset.num_classes)
        plain = FullBatchTrainer(model, dataset, TrainingConfig(**cfg))
        plain_result = plain.train()
        _, plain_logits = plain.evaluate()

        set_seed(3)
        model = _make_model(kind, dataset.feature_dim, dataset.num_classes)
        stored = FullBatchTrainer(model, dataset, TrainingConfig(
            feature_store=DenseStore(dataset.features), **cfg))
        stored_result = stored.train()
        _, stored_logits = stored.evaluate()

        assert plain_result.losses() == stored_result.losses()
        assert np.array_equal(plain_logits, stored_logits)

    @pytest.mark.parametrize("kind", ["sage", "gat"])
    def test_two_worker_sampled_and_layerwise(self, dataset, kind):
        cfg = dict(num_epochs=2, lr=0.01, seed=1, eval_every=0,
                   eval_inference="layerwise", eval_batch_size=48,
                   sampler=NeighborSamplingConfig(fanouts=(3, 3), batch_size=32))
        # Workers build their model inside concurrent threads, where the
        # shared global RNG interleaves nondeterministically — so initialize
        # once on this thread and have the factory load the reference state.
        set_seed(7)
        reference_state = _make_model(
            kind, dataset.feature_dim, dataset.num_classes).state_dict()

        def factory(in_f, kind=kind):
            model = _make_model(kind, in_f, dataset.num_classes)
            model.load_state_dict(reference_state)
            return model

        runs = {}
        for label, store in (("off", None), ("kv", "kv")):
            set_seed(7)
            trainer = DistributedTrainer(
                dataset, factory, 2,
                config=TrainingConfig(feature_store=store, **cfg))
            result = trainer.run()
            runs[label] = (
                result.training.losses(),
                trainer.assemble_global_predictions(result),
                result.cluster.results[0].get("feature_store_stats"),
            )
        assert runs["off"][0] == runs["kv"][0]
        assert np.array_equal(runs["off"][1], runs["kv"][1])
        assert runs["kv"][2] is not None  # stats made it into the result

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

    def test_layerwise_inference_accepts_store(self, dataset):
        set_seed(6)
        model = _make_model("sage", dataset.feature_dim, dataset.num_classes)
        engine = LayerWiseInference(model, dataset.graph, batch_size=40)
        direct = engine.run(dataset.features)
        stored = engine.run(DenseStore(dataset.features))
        assert np.array_equal(direct, stored)


# --------------------------------------------------------------------------- #
# trainer integration: trainable store + config validation
# --------------------------------------------------------------------------- #
class TestTrainerFeatureStore:
    def test_sparse_embedding_training_learns(self, dataset):
        emb = SparseEmbeddingStore(dataset.graph.num_nodes, 8, seed=3)
        before = emb.weight.copy()
        set_seed(5)
        model = _make_model("sage", 8, dataset.num_classes)
        trainer = FullBatchTrainer(model, dataset, TrainingConfig(
            feature_store=emb, feature_store_lr=0.05, num_epochs=6, lr=0.01,
            seed=1, eval_every=0,
            sampler=NeighborSamplingConfig(fanouts=(4, 4), batch_size=32)))
        result = trainer.train()
        losses = result.losses()
        assert losses[-1] < losses[0]
        assert trainer.sparse_optimizer.steps_taken > 0
        assert not np.array_equal(emb.weight, before)
        # Evaluation reads the learned table (full coverage, no crash).
        accs, logits = trainer.evaluate()
        assert logits.shape == (dataset.graph.num_nodes, dataset.num_classes)

    def test_config_validation(self, dataset):
        model = _make_model("sage", dataset.feature_dim, dataset.num_classes)
        with pytest.raises(ValueError, match="distributed-only"):
            FullBatchTrainer(model, dataset,
                             TrainingConfig(feature_store="kv"))
        with pytest.raises(ValueError, match="label_augmentation"):
            FullBatchTrainer(model, dataset, TrainingConfig(
                feature_store=DenseStore(dataset.features),
                label_augmentation=True))
        with pytest.raises(ValueError, match="rows"):
            FullBatchTrainer(model, dataset, TrainingConfig(
                feature_store=DenseStore(
                    np.zeros((3, 8), dtype=np.float32))))


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
