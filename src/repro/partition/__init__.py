"""Graph partitioning (METIS substitute), partition book, and per-worker shards."""

from repro.partition.partitioner import (
    partition_graph,
    edge_cut,
    partition_sizes,
    balance_ratio,
)
from repro.partition.book import PartitionBook
from repro.partition.shard import (
    EdgeBlock,
    ShardedGraph,
    create_shards,
)

__all__ = [
    "partition_graph",
    "edge_cut",
    "partition_sizes",
    "balance_ratio",
    "PartitionBook",
    "EdgeBlock",
    "ShardedGraph",
    "create_shards",
]
