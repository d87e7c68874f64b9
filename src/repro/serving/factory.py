"""One serving entry point: a ServingConfig picks the executor behind the Server."""

from __future__ import annotations

from typing import Optional

from repro.serving.config import ServingConfig
from repro.serving.executors import LocalExecutor, ShardExecutor
from repro.serving.server import Server


def create_server(
    model, graph_or_shards, features_or_store, config: Optional[ServingConfig] = None
) -> Server:
    """Build the :class:`~repro.serving.Server` a :class:`~repro.serving.ServingConfig` asks for.

    ``backend="local"`` takes a :class:`~repro.graph.graph.Graph` plus the
    feature matrix (or a :class:`~repro.store.FeatureStore`) and serves it
    through a :class:`~repro.serving.LocalExecutor`.  ``backend=
    "distributed"`` and ``backend="mp"`` take the per-worker
    :class:`~repro.partition.shard.ShardedGraph` list (what
    :func:`repro.partition.shard.create_shards` returns) plus the global
    feature matrix or one global :class:`~repro.store.FeatureStore` and
    serve them through a
    :class:`~repro.serving.ShardExecutor` over shard worker threads or one
    forked shard process each.  The server is not started — call ``start()``
    or use it as a context manager.
    """
    if config is None:
        config = ServingConfig()
    if not isinstance(config, ServingConfig):
        raise ValueError(f"config must be a ServingConfig, got {type(config).__name__}")
    executor_cls = LocalExecutor if config.backend == "local" else ShardExecutor
    return Server(executor_cls(model, graph_or_shards, features_or_store, config), config)
