"""Scaled-down stand-ins for the OGB graphs used in the paper.

The paper's experiments use ogbn-products (2.5 M nodes / 124 M edges),
ogbn-papers100M (111 M nodes / 3.2 B edges) and ogbn-mag (1.9 M nodes,
4 relations).  These cannot be downloaded offline and would not fit the
simulation host anyway, so each is replaced by a seeded synthetic dataset
that keeps the *structural role* it plays in the evaluation:

* ``ogbn_products_mini`` — the "moderate size, partitioned over 4/8/16
  workers" graph (Figs. 3 and 4, Table 1).  Feature dimension 100 as in the
  paper; class count reduced to 12.
* ``ogbn_papers_mini``   — the "large, partitioned over 32/64/128 workers"
  graph (Figs. 5, 6 and 8).  Feature dimension 128; sparse labels (only a
  small fraction of nodes is labelled, as in papers100M) so the
  Message-Flow-Graph optimization of Appendix B has something to save.
* ``ogbn_mag_mini``      — the heterogeneous graph with 4 relations used for
  the R-GCN experiments (Fig. 7).

Every generator accepts a ``scale`` multiplier so tests can run on tiny
versions and benchmarks on larger ones.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.datasets.synthetic import (
    NodeClassificationDataset,
    make_hetero_sbm_dataset,
    make_sbm_dataset,
)
from repro.utils.validation import check_positive_int


def ogbn_products_mini(scale: float = 1.0, seed: int = 0) -> NodeClassificationDataset:
    """Products-like graph: dense-ish, strongly homophilous, 100-d features."""
    num_nodes = check_positive_int(int(2400 * scale), "num_nodes")
    num_classes = 12
    return make_sbm_dataset(
        name="ogbn-products-mini",
        num_nodes=num_nodes,
        num_classes=num_classes,
        feature_dim=100,
        p_in=min(1.0, 0.035 / scale),
        p_out=min(1.0, 0.0012 / scale),
        signal=1.0,
        noise=2.0,
        train_frac=0.4,
        val_frac=0.2,
        test_frac=0.4,
        seed=seed,
    )


def ogbn_papers_mini(scale: float = 1.0, seed: int = 1) -> NodeClassificationDataset:
    """Papers100M-like graph: larger, sparser labels, 128-d features."""
    num_nodes = check_positive_int(int(6400 * scale), "num_nodes")
    num_classes = 16
    return make_sbm_dataset(
        name="ogbn-papers-mini",
        num_nodes=num_nodes,
        num_classes=num_classes,
        feature_dim=128,
        p_in=min(1.0, 0.02 / scale),
        p_out=min(1.0, 0.0004 / scale),
        signal=1.0,
        noise=2.5,
        train_frac=0.10,
        val_frac=0.10,
        test_frac=0.20,
        seed=seed,
    )


def ogbn_mag_mini(scale: float = 1.0, seed: int = 2) -> NodeClassificationDataset:
    """MAG-like relational graph: 4 relations of varying informativeness."""
    num_nodes = check_positive_int(int(2000 * scale), "num_nodes")
    relation_specs: Dict[str, Dict[str, float]] = {
        "cites": {"p_in": min(1.0, 0.030 / scale), "p_out": min(1.0, 0.0010 / scale)},
        "writes": {"p_in": min(1.0, 0.015 / scale), "p_out": min(1.0, 0.0020 / scale)},
        "affiliated_with": {"p_in": min(1.0, 0.008 / scale), "p_out": min(1.0, 0.0030 / scale)},
        "has_topic": {"p_in": min(1.0, 0.006 / scale), "p_out": min(1.0, 0.0040 / scale)},
    }
    return make_hetero_sbm_dataset(
        name="ogbn-mag-mini",
        num_nodes=num_nodes,
        num_classes=8,
        feature_dim=128,
        relation_specs=relation_specs,
        signal=1.0,
        noise=2.0,
        train_frac=0.4,
        val_frac=0.2,
        test_frac=0.4,
        seed=seed,
    )


_REGISTRY: Dict[str, Callable[..., NodeClassificationDataset]] = {
    "ogbn-products-mini": ogbn_products_mini,
    "ogbn-papers-mini": ogbn_papers_mini,
    "ogbn-mag-mini": ogbn_mag_mini,
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`get_dataset`."""
    return sorted(_REGISTRY)


def get_dataset(name: str, **kwargs) -> NodeClassificationDataset:
    """Instantiate a dataset by name (``scale=…`` and ``seed=…`` forwarded)."""
    if name not in _REGISTRY:
        raise KeyError(f"Unknown dataset {name!r}; available: {available_datasets()}")
    return _REGISTRY[name](**kwargs)
