"""Graph substrate: data structures, generators, and MFG utilities."""

from repro.graph.graph import Graph
from repro.graph.generators import (
    stochastic_block_model,
    erdos_renyi,
    barabasi_albert,
    ring_graph,
    star_graph,
)
from repro.graph.mfg import (
    MFGBlock,
    MFGPipeline,
    build_mfg_pipeline,
    message_flow_masks,
    mfg_savings,
    required_node_counts,
)

__all__ = [
    "Graph",
    "stochastic_block_model",
    "erdos_renyi",
    "barabasi_albert",
    "ring_graph",
    "star_graph",
    "message_flow_masks",
    "required_node_counts",
    "mfg_savings",
    "MFGBlock",
    "MFGPipeline",
    "build_mfg_pipeline",
]
