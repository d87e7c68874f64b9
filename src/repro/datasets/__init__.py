"""Synthetic datasets standing in for the paper's OGB benchmarks."""

from repro.datasets.synthetic import (
    NodeClassificationDataset,
    make_sbm_dataset,
    make_hetero_sbm_dataset,
    class_correlated_features,
    random_split,
)
from repro.datasets.ogb_like import (
    ogbn_products_mini,
    ogbn_papers_mini,
    ogbn_mag_mini,
    get_dataset,
    available_datasets,
)

__all__ = [
    "NodeClassificationDataset",
    "make_sbm_dataset",
    "make_hetero_sbm_dataset",
    "class_correlated_features",
    "random_split",
    "ogbn_products_mini",
    "ogbn_papers_mini",
    "ogbn_mag_mini",
    "get_dataset",
    "available_datasets",
]
