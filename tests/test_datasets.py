"""Tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    available_datasets,
    get_dataset,
    make_hetero_sbm_dataset,
    make_sbm_dataset,
    ogbn_mag_mini,
    ogbn_papers_mini,
    ogbn_products_mini,
    random_split,
)


class TestSplits:
    def test_split_fractions(self, rng):
        train, val, test = random_split(1000, 0.5, 0.2, 0.3, rng)
        assert abs(train.sum() - 500) <= 1
        assert abs(val.sum() - 200) <= 1
        assert abs(test.sum() - 300) <= 1

    def test_splits_disjoint(self, rng):
        train, val, test = random_split(500, 0.4, 0.3, 0.3, rng)
        assert not np.any(train & val)
        assert not np.any(train & test)
        assert not np.any(val & test)

    def test_invalid_fractions_raise(self):
        with pytest.raises(ValueError):
            random_split(100, 0.6, 0.3, 0.3)


class TestSBMDataset:
    def test_basic_properties(self, small_dataset):
        ds = small_dataset
        assert ds.num_nodes == ds.graph.num_nodes == len(ds.labels)
        assert ds.features.shape == (ds.num_nodes, ds.feature_dim)
        assert ds.labels.max() < ds.num_classes
        assert ds.features.dtype == np.float32

    def test_labels_match_blocks_homophily(self, small_dataset):
        g, labels = small_dataset.graph, small_dataset.labels
        no_self = g.src != g.dst
        same = (labels[g.src[no_self]] == labels[g.dst[no_self]]).mean()
        assert same > 0.6

    def test_attach_to_graph(self, small_dataset):
        assert "feat" in small_dataset.graph.ndata
        assert "train_mask" in small_dataset.graph.ndata

    def test_summary_fields(self, small_dataset):
        summary = small_dataset.summary()
        assert summary["num_nodes"] == small_dataset.num_nodes
        assert summary["train_nodes"] == int(small_dataset.train_mask.sum())

    def test_reproducible_with_seed(self):
        a = make_sbm_dataset("x", 100, 4, 8, 0.1, 0.01, seed=3)
        b = make_sbm_dataset("x", 100, 4, 8, 0.1, 0.01, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.num_edges == b.num_edges

    def test_split_indices_helpers(self, small_dataset):
        assert len(small_dataset.train_indices()) == small_dataset.train_mask.sum()
        assert len(small_dataset.test_indices()) == small_dataset.test_mask.sum()

    def test_features_are_class_informative(self, small_dataset):
        """A trivial nearest-centroid classifier must beat chance on the features."""
        ds = small_dataset
        centroids = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)
        ])
        distances = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(-1)
        accuracy = (distances.argmin(axis=1) == ds.labels).mean()
        assert accuracy > 1.5 / ds.num_classes


class TestOgbLikeDatasets:
    def test_products_mini_shape(self):
        ds = ogbn_products_mini(scale=0.2)
        assert ds.feature_dim == 100
        assert ds.num_classes == 12
        assert ds.name == "ogbn-products-mini"

    def test_papers_mini_sparse_labels(self):
        ds = ogbn_papers_mini(scale=0.2)
        assert ds.feature_dim == 128
        assert ds.train_mask.mean() < 0.2

    def test_mag_mini_is_heterogeneous(self):
        ds = ogbn_mag_mini(scale=0.2)
        assert set(ds.graph.relation_names) == {
            "cites", "writes", "affiliated_with", "has_topic"
        }
        assert ds.graph.num_edges == sum(len(src) for src, _ in ds.graph.relation_edges.values())

    def test_registry(self):
        assert set(available_datasets()) == {
            "ogbn-products-mini", "ogbn-papers-mini", "ogbn-mag-mini"
        }
        ds = get_dataset("ogbn-products-mini", scale=0.2)
        assert ds.num_nodes > 0
        with pytest.raises(KeyError):
            get_dataset("ogbn-unknown")

    def test_scale_parameter_changes_size(self):
        small = ogbn_products_mini(scale=0.2)
        large = ogbn_products_mini(scale=0.4)
        assert large.num_nodes > small.num_nodes

    def test_hetero_relations_have_different_densities(self):
        ds = ogbn_mag_mini(scale=0.3)
        counts = [len(src) for src, _ in ds.graph.relation_edges.values()]
        assert len(set(counts)) > 1


class TestOgbLikeSplitHandling:
    """Split-handling guarantees the trainers and the sampler rely on."""

    @pytest.mark.parametrize("maker,fractions", [
        (ogbn_products_mini, (0.4, 0.2, 0.4)),
        (ogbn_papers_mini, (0.10, 0.10, 0.20)),
        (ogbn_mag_mini, (0.4, 0.2, 0.4)),
    ])
    def test_split_fractions_and_disjointness(self, maker, fractions):
        ds = maker(scale=0.25)
        masks = (ds.train_mask, ds.val_mask, ds.test_mask)
        for mask, fraction in zip(masks, fractions):
            assert mask.dtype == np.bool_
            assert mask.shape == (ds.num_nodes,)
            assert abs(int(mask.sum()) - round(fraction * ds.num_nodes)) <= 1
        assert not np.any(ds.train_mask & ds.val_mask)
        assert not np.any(ds.train_mask & ds.test_mask)
        assert not np.any(ds.val_mask & ds.test_mask)

    def test_split_indices_sorted_and_consistent_with_masks(self):
        ds = ogbn_papers_mini(scale=0.25)
        for indices, mask in [
            (ds.train_indices(), ds.train_mask),
            (ds.val_indices(), ds.val_mask),
            (ds.test_indices(), ds.test_mask),
        ]:
            assert np.all(np.diff(indices) > 0)
            np.testing.assert_array_equal(np.flatnonzero(mask), indices)

    def test_same_seed_reproduces_splits_and_scale_preserves_fractions(self):
        a = ogbn_papers_mini(scale=0.25, seed=5)
        b = ogbn_papers_mini(scale=0.25, seed=5)
        np.testing.assert_array_equal(a.train_mask, b.train_mask)
        np.testing.assert_array_equal(a.val_mask, b.val_mask)
        np.testing.assert_array_equal(a.test_mask, b.test_mask)
        c = ogbn_papers_mini(scale=0.25, seed=6)
        assert not np.array_equal(a.train_mask, c.train_mask)
        small, large = ogbn_papers_mini(scale=0.25), ogbn_papers_mini(scale=0.5)
        assert abs(small.train_mask.mean() - large.train_mask.mean()) < 0.02

    def test_masks_are_attached_to_graph_ndata(self):
        ds = ogbn_products_mini(scale=0.2)
        for key in ("train_mask", "val_mask", "test_mask", "feat", "label"):
            assert key in ds.graph.ndata
        np.testing.assert_array_equal(ds.graph.ndata["train_mask"], ds.train_mask)
        hetero = ogbn_mag_mini(scale=0.2)
        for key in ("train_mask", "val_mask", "test_mask"):
            assert key in hetero.graph.ndata

    def test_registry_forwards_scale_and_seed(self):
        via_registry = get_dataset("ogbn-papers-mini", scale=0.25, seed=9)
        direct = ogbn_papers_mini(scale=0.25, seed=9)
        assert via_registry.num_nodes == direct.num_nodes
        np.testing.assert_array_equal(via_registry.train_mask, direct.train_mask)

    def test_hetero_split_masks_cover_shared_node_space(self):
        ds = make_hetero_sbm_dataset(
            name="h", num_nodes=120, num_classes=4, feature_dim=8,
            relation_specs={"a": {"p_in": 0.2, "p_out": 0.02},
                            "b": {"p_in": 0.05, "p_out": 0.01}},
            train_frac=0.5, val_frac=0.2, test_frac=0.3, seed=2,
        )
        assert ds.graph.num_nodes == len(ds.train_mask)
        covered = ds.train_mask | ds.val_mask | ds.test_mask
        assert covered.sum() == ds.num_nodes


def _dataset_digest(dataset) -> str:
    sha = hashlib.sha256()
    for name, (src, dst) in dataset.graph.relation_edges.items():
        sha.update(repr(name).encode())
        for ids in (src, dst):
            sha.update(np.asarray(ids, dtype="<i8").tobytes())
    sha.update(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
    sha.update(np.asarray(dataset.labels, dtype="<i8").tobytes())
    for mask in (dataset.train_mask, dataset.val_mask, dataset.test_mask):
        sha.update(np.asarray(mask, dtype=bool).tobytes())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("make, expected", [
    (ogbn_products_mini, "ccb0cb37b60c91f5"),
    (ogbn_papers_mini, "81a5b506a22c4c00"),
    (ogbn_mag_mini, "c43b8df260ec5fb8"),
], ids=["products", "papers", "mag"])
def test_mini_datasets_are_pinned(make, expected):
    """Edges per relation, features, labels and split masks, bit for bit."""
    assert _dataset_digest(make()) == expected
