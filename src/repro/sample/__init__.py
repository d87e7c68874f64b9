"""Mini-batch neighbour sampling: samplers, data loaders, distributed protocol."""

from repro.graph.in_edges import InEdgeIndex
from repro.sample.neighbor import NeighborSampler, sample_in_edges
from repro.sample.loader import (
    MiniBatch,
    MiniBatchDataLoader,
    NeighborSamplingConfig,
    epoch_seed_order,
    num_batches_for,
)
from repro.sample.distributed import DistributedNeighborSampler
from repro.sample.inference import (
    LayerWiseInference,
    check_layered_model,
    distributed_layerwise_logits,
)

__all__ = [
    "LayerWiseInference",
    "check_layered_model",
    "distributed_layerwise_logits",
    "InEdgeIndex",
    "NeighborSampler",
    "sample_in_edges",
    "MiniBatch",
    "MiniBatchDataLoader",
    "NeighborSamplingConfig",
    "epoch_seed_order",
    "num_batches_for",
    "DistributedNeighborSampler",
]
