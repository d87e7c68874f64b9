"""repro — a reproduction of "Sequential Aggregation and Rematerialization:
Distributed Full-batch Training of Graph Neural Networks on Large Graphs"
(Mostafa, MLSys 2022).

The package is organized as:

* :mod:`repro.tensor`       — NumPy-backed autograd engine with per-worker memory tracking
* :mod:`repro.graph`        — graph data structures, generators, message-flow graphs
* :mod:`repro.partition`    — balanced k-way partitioning, partition book, per-worker shards
* :mod:`repro.distributed`  — thread and multiprocess cluster drivers (``cluster.run_job``),
                              communicator, per-tag byte accounting
* :mod:`repro.nn`           — GNN layers (GraphSage, GAT, fused-attention GAT, R-GCN) and models
* :mod:`repro.core`         — SAR itself: the sequential-aggregation engine with pluggable
                              block kernels, distributed graph handles, rematerialized
                              backward passes, gradient synchronization
* :mod:`repro.datasets`     — synthetic stand-ins for ogbn-products / papers100M / mag
* :mod:`repro.sample`       — seeded neighbour sampling: mini-batch block chains,
                              prefetching data loaders, cooperative distributed sampling
* :mod:`repro.training`     — full-batch trainers, label augmentation, Correct & Smooth
* :mod:`repro.serving`      — online inference: micro-batching server, historical-embedding cache
"""

__version__ = "0.2.0"

from repro import tensor
from repro import graph
from repro import partition
from repro import distributed
from repro import nn
from repro import core
from repro import datasets
from repro import sample
from repro import serving
from repro import training
from repro import utils

__all__ = [
    "__version__",
    "tensor",
    "graph",
    "partition",
    "distributed",
    "nn",
    "core",
    "datasets",
    "sample",
    "serving",
    "training",
    "utils",
]
