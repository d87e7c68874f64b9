"""Tests for training components: metrics, label augmentation, Correct & Smooth."""

import numpy as np
import pytest

from repro.distributed import run_distributed
from repro.training import (
    CorrectAndSmooth,
    LabelAugmenter,
    NoLabelAugmenter,
    distributed_masked_accuracy,
    distributed_mean_loss,
    evaluation_report,
    masked_accuracy,
    masked_correct_counts,
)


class TestMetrics:
    def test_masked_accuracy_basic(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1, 1, 1])
        mask = np.array([True, True, True, False])
        assert np.isclose(masked_accuracy(logits, labels, mask), 2 / 3)

    def test_masked_accuracy_empty_mask_is_nan(self):
        assert np.isnan(masked_accuracy(np.zeros((3, 2)), np.zeros(3, dtype=int),
                                        np.zeros(3, dtype=bool)))

    def test_correct_counts(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        correct, total = masked_correct_counts(logits, np.array([0, 0]),
                                               np.array([True, True]))
        assert (correct, total) == (1, 2)

    def test_distributed_accuracy_matches_global(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1, 1])
        mask = np.ones(4, dtype=bool)
        expected = masked_accuracy(logits, labels, mask)

        def worker(rank, comm):
            sl = slice(rank * 2, rank * 2 + 2)
            return distributed_masked_accuracy(logits[sl], labels[sl], mask[sl], comm)

        result = run_distributed(worker, 2)
        assert all(np.isclose(r, expected) for r in result.results)

    def test_distributed_mean_loss(self):
        def worker(rank, comm):
            return distributed_mean_loss(local_loss_sum=float(rank + 1), local_count=1, comm=comm)

        assert run_distributed(worker, 2).results == [1.5, 1.5]

    def test_evaluation_report_keys(self):
        logits = np.eye(3)
        labels = np.arange(3)
        masks = {"train": np.array([True, False, False]),
                 "val": np.array([False, True, False])}
        report = evaluation_report(logits, labels, masks)
        assert set(report) == {"train", "val"}
        assert report["train"] == 1.0


class TestLabelAugmentation:
    def test_feature_width_grows_by_num_classes(self, rng):
        aug = LabelAugmenter(num_classes=5, augment_fraction=0.5)
        features = rng.standard_normal((20, 3)).astype(np.float32)
        labels = rng.integers(0, 5, size=20)
        train = np.ones(20, dtype=bool)
        out, _ = aug.training_batch(features, labels, train, rng)
        assert out.shape == (20, 8)
        assert aug.augmented_dim(3) == 8

    def test_revealed_and_predicted_are_disjoint(self, rng):
        aug = LabelAugmenter(num_classes=4, augment_fraction=0.5)
        features = np.zeros((50, 2), dtype=np.float32)
        labels = rng.integers(0, 4, size=50)
        train = rng.random(50) < 0.6
        out, predict_mask = aug.training_batch(features, labels, train, rng)
        revealed = out[:, 2:].sum(axis=1) > 0
        assert not np.any(revealed & predict_mask)
        assert np.all(predict_mask <= train)

    def test_onehot_matches_label(self, rng):
        aug = LabelAugmenter(num_classes=3, augment_fraction=1.0)
        features = np.zeros((10, 1), dtype=np.float32)
        labels = rng.integers(0, 3, size=10)
        train = np.ones(10, dtype=bool)
        out = aug.inference_batch(features, labels, train)
        np.testing.assert_array_equal(out[:, 1:].argmax(axis=1), labels)

    def test_degenerate_full_reveal_keeps_one_prediction_node(self, rng):
        aug = LabelAugmenter(num_classes=2, augment_fraction=1.0)
        features = np.zeros((5, 1), dtype=np.float32)
        labels = np.zeros(5, dtype=np.int64)
        train = np.ones(5, dtype=bool)
        _, predict_mask = aug.training_batch(features, labels, train, rng)
        assert predict_mask.sum() >= 1

    def test_non_training_nodes_never_revealed(self, rng):
        aug = LabelAugmenter(num_classes=3, augment_fraction=1.0)
        features = np.zeros((10, 1), dtype=np.float32)
        labels = rng.integers(0, 3, size=10)
        train = np.zeros(10, dtype=bool)
        train[:3] = True
        out = aug.inference_batch(features, labels, train)
        assert np.all(out[3:, 1:] == 0)

    def test_no_label_augmenter_is_identity(self, rng):
        aug = NoLabelAugmenter(num_classes=7)
        features = rng.standard_normal((4, 3)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        train = np.ones(4, dtype=bool)
        out, mask = aug.training_batch(features, labels, train)
        np.testing.assert_array_equal(out, features)
        np.testing.assert_array_equal(mask, train)
        assert aug.augmented_dim(3) == 3

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            LabelAugmenter(3, augment_fraction=1.5)


class TestCorrectAndSmooth:
    def test_improves_noisy_predictions_on_homophilous_graph(self, small_dataset, rng):
        dataset = small_dataset
        num_classes = dataset.num_classes
        # Noisy soft predictions: correct class gets a small margin, then noise.
        logits = np.eye(num_classes)[dataset.labels] * 1.0
        logits += rng.standard_normal(logits.shape) * 1.2
        base_acc = masked_accuracy(logits, dataset.labels, dataset.test_mask)
        cs = CorrectAndSmooth(num_correct_iters=10, num_smooth_iters=10)
        refined = cs(dataset.graph, logits, dataset.labels, dataset.train_mask)
        refined_acc = masked_accuracy(refined, dataset.labels, dataset.test_mask)
        assert refined_acc > base_acc

    def test_training_rows_clamped_toward_ground_truth(self, small_dataset):
        dataset = small_dataset
        logits = np.zeros((dataset.num_nodes, dataset.num_classes), dtype=np.float32)
        cs = CorrectAndSmooth(num_correct_iters=3, num_smooth_iters=3)
        refined = cs(dataset.graph, logits, dataset.labels, dataset.train_mask)
        train_acc = masked_accuracy(refined, dataset.labels, dataset.train_mask)
        assert train_acc > 0.8

    def test_output_shape_preserved(self, small_dataset):
        dataset = small_dataset
        logits = np.zeros((dataset.num_nodes, dataset.num_classes), dtype=np.float32)
        refined = CorrectAndSmooth(num_correct_iters=2, num_smooth_iters=2)(
            dataset.graph, logits, dataset.labels, dataset.train_mask
        )
        assert refined.shape == logits.shape
        assert np.all(np.isfinite(refined))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CorrectAndSmooth(num_correct_iters=0)
        with pytest.raises(ValueError):
            CorrectAndSmooth(num_smooth_iters=0)

    def test_distributed_matches_single_machine(self, small_dataset):
        """C&S through DistributedGraph.propagate equals the single-machine result."""
        from repro.core import DistributedGraph, SAR
        from repro.partition import PartitionBook, create_shards, partition_graph

        dataset = small_dataset
        rng = np.random.default_rng(3)
        logits = np.eye(dataset.num_classes)[dataset.labels] + \
            rng.standard_normal((dataset.num_nodes, dataset.num_classes)) * 0.8
        logits = logits.astype(np.float32)
        cs = CorrectAndSmooth(num_correct_iters=5, num_smooth_iters=5)
        expected = cs(dataset.graph, logits, dataset.labels, dataset.train_mask)

        dataset.attach_to_graph()
        assignment = partition_graph(dataset.graph, 3, seed=0)
        book = PartitionBook(assignment, 3)
        shards = create_shards(dataset.graph, book)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR)
            dg.begin_step()
            ids = shard.global_node_ids
            refined = cs(dg, logits[ids], dataset.labels[ids], dataset.train_mask[ids])
            return refined

        result = run_distributed(worker, 3, worker_args=shards)
        stitched = book.scatter_to_global(result.results)
        np.testing.assert_allclose(stitched, expected, rtol=1e-3, atol=1e-3)

    def test_distributed_matches_single_machine_over_relations(self):
        """On relational shards, ``propagate`` sums every relation's grid and
        its degrees count every relation's edges: the result is C&S over the
        dataset's homogeneous graph, the union of the relations."""
        from repro.core import DistributedGraph, SAR
        from repro.datasets import ogbn_mag_mini
        from repro.partition import PartitionBook, create_shards, partition_graph

        dataset = ogbn_mag_mini(scale=0.2)
        rng = np.random.default_rng(3)
        logits = np.eye(dataset.num_classes)[dataset.labels] + \
            rng.standard_normal((dataset.num_nodes, dataset.num_classes)) * 0.8
        logits = logits.astype(np.float32)
        cs = CorrectAndSmooth(num_correct_iters=5, num_smooth_iters=5)
        expected = cs(dataset.graph, logits, dataset.labels, dataset.train_mask)

        book = PartitionBook(partition_graph(dataset.graph, 3, seed=0), 3)
        shards = create_shards(dataset.graph, book)

        def worker(rank, comm, shard):
            dg = DistributedGraph(shard, comm, SAR)
            dg.begin_step()
            ids = shard.global_node_ids
            return cs(dg, logits[ids], dataset.labels[ids], dataset.train_mask[ids])

        result = run_distributed(worker, 3, worker_args=shards)
        stitched = book.scatter_to_global(result.results)
        np.testing.assert_allclose(stitched, expected, rtol=0, atol=1e-5)
