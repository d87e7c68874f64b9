"""Synthetic node-classification datasets.

The paper evaluates on OGB node-classification graphs (ogbn-products,
ogbn-papers100M, ogbn-mag), which cannot be downloaded in this offline
environment.  The generators here produce stochastic-block-model graphs with
class-correlated Gaussian features, which preserve the properties the
experiments rely on:

* homophily — neighbours tend to share labels, so message passing helps and
  Correct & Smooth / label propagation give an extra boost;
* a feature signal that is informative but noisy, so GNN accuracy sits well
  below 100 % and differences between models/configurations remain visible;
* train/validation/test node splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.generators import stochastic_block_model
from repro.utils.seed import temp_seed
from repro.utils.validation import check_positive_int, check_probability


@dataclass
class NodeClassificationDataset:
    """A graph with features, labels, and train/val/test node splits.

    ``graph`` is the graph the model trains on: homogeneous, or relational
    (:func:`make_hetero_sbm_dataset`), whose ``src``/``dst`` union the
    partitioner and Correct & Smooth read.
    """

    name: str
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int
    metadata: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def train_indices(self) -> np.ndarray:
        return np.where(self.train_mask)[0]

    def val_indices(self) -> np.ndarray:
        return np.where(self.val_mask)[0]

    def test_indices(self) -> np.ndarray:
        return np.where(self.test_mask)[0]

    def attach_to_graph(self) -> None:
        """Copy features/labels/masks into ``graph.ndata`` so sharding carries them."""
        self.graph.set_ndata("feat", self.features)
        self.graph.set_ndata("label", self.labels)
        self.graph.set_ndata("train_mask", self.train_mask)
        self.graph.set_ndata("val_mask", self.val_mask)
        self.graph.set_ndata("test_mask", self.test_mask)

    def summary(self) -> Dict[str, float]:
        """Dataset statistics in the style of the paper's Table 1."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_features": self.feature_dim,
            "num_classes": self.num_classes,
            "train_nodes": int(self.train_mask.sum()),
            "val_nodes": int(self.val_mask.sum()),
            "test_nodes": int(self.test_mask.sum()),
        }


# --------------------------------------------------------------------------- #
# feature / split generation helpers
# --------------------------------------------------------------------------- #
def class_correlated_features(labels: np.ndarray, num_classes: int, feature_dim: int,
                              signal: float = 1.0, noise: float = 1.0,
                              rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Gaussian features whose class means are separated by ``signal``."""
    rng = rng or np.random.default_rng(0)
    centers = rng.normal(0.0, signal, size=(num_classes, feature_dim))
    feats = centers[labels] + rng.normal(0.0, noise, size=(len(labels), feature_dim))
    return feats.astype(np.float32)


def random_split(num_nodes: int, train_frac: float, val_frac: float, test_frac: float,
                 rng: Optional[np.random.Generator] = None):
    """Disjoint boolean train/val/test masks with the requested fractions."""
    total = train_frac + val_frac + test_frac
    if total > 1.0 + 1e-9:
        raise ValueError(
            f"train+val+test fractions must not exceed 1.0, got {total:.3f}"
        )
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(num_nodes)
    n_train = int(round(train_frac * num_nodes))
    n_val = int(round(val_frac * num_nodes))
    n_test = int(round(test_frac * num_nodes))
    train_mask = np.zeros(num_nodes, dtype=bool)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train:n_train + n_val]] = True
    test_mask[order[n_train + n_val:n_train + n_val + n_test]] = True
    return train_mask, val_mask, test_mask


def _labelled_dataset(name: str, graph: Graph, labels: np.ndarray, num_classes: int,
                      feature_dim: int, signal: float, noise: float,
                      fractions: Tuple[float, float, float], seed: int,
                      metadata: Dict[str, float]) -> NodeClassificationDataset:
    """The generators' shared tail: class-correlated features and the
    train/val/test split drawn under ``seed``, then the dataset over
    ``graph`` with its node data attached."""
    with temp_seed(seed) as rng:
        features = class_correlated_features(labels, num_classes, feature_dim,
                                             signal=signal, noise=noise, rng=rng)
        train_mask, val_mask, test_mask = random_split(graph.num_nodes, *fractions, rng=rng)
    dataset = NodeClassificationDataset(
        name=name,
        graph=graph,
        features=features,
        labels=labels.astype(np.int64),
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        num_classes=num_classes,
        metadata=metadata,
    )
    dataset.attach_to_graph()
    return dataset


def make_sbm_dataset(name: str, num_nodes: int, num_classes: int, feature_dim: int,
                     p_in: float, p_out: float, signal: float = 1.0, noise: float = 1.5,
                     train_frac: float = 0.5, val_frac: float = 0.2, test_frac: float = 0.3,
                     seed: int = 0) -> NodeClassificationDataset:
    """Generate a homophilous SBM node-classification dataset (self-loops added)."""
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    num_classes = check_positive_int(num_classes, "num_classes")
    feature_dim = check_positive_int(feature_dim, "feature_dim")
    check_probability(p_in, "p_in")
    check_probability(p_out, "p_out")
    base = num_nodes // num_classes
    block_sizes = [base + (1 if c < num_nodes % num_classes else 0) for c in range(num_classes)]
    graph, labels = stochastic_block_model(block_sizes, p_in, p_out, seed=seed)
    graph = graph.add_self_loops()
    return _labelled_dataset(
        name, graph, labels, num_classes, feature_dim, signal, noise,
        (train_frac, val_frac, test_frac), seed + 1,
        {"p_in": p_in, "p_out": p_out, "signal": signal, "noise": noise, "seed": seed},
    )


def make_hetero_sbm_dataset(name: str, num_nodes: int, num_classes: int, feature_dim: int,
                            relation_specs: Dict[str, Dict[str, float]],
                            signal: float = 1.0, noise: float = 1.5,
                            train_frac: float = 0.5, val_frac: float = 0.2,
                            test_frac: float = 0.3, seed: int = 0
                            ) -> NodeClassificationDataset:
    """Generate a relational dataset: one SBM edge set per relation.

    ``relation_specs`` maps relation name → ``{"p_in": …, "p_out": …}``; each
    relation is generated independently over the same node/label assignment,
    so different relations carry differently-strong homophily signal (as in
    ogbn-mag, where "cites" edges are far more informative than "has_topic").
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    base = num_nodes // num_classes
    block_sizes = [base + (1 if c < num_nodes % num_classes else 0) for c in range(num_classes)]
    relations = {}
    labels = None
    for index, (rel_name, spec) in enumerate(relation_specs.items()):
        graph_r, labels = stochastic_block_model(
            block_sizes, spec["p_in"], spec["p_out"], seed=seed + index
        )
        relations[rel_name] = (graph_r.src, graph_r.dst)
    graph = Graph.from_relations(int(sum(block_sizes)), relations)
    return _labelled_dataset(
        name, graph, labels, num_classes, feature_dim, signal, noise,
        (train_frac, val_frac, test_frac), seed + 100,
        {"seed": seed, "num_relations": len(relation_specs)},
    )
