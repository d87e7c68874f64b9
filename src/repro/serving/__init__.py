"""Online inference serving: one ``Server`` over three executors.

Build servers with :func:`create_server`: a :class:`ServingConfig` selects
``backend="local"`` (one machine holding the whole graph —
:class:`LocalExecutor`), ``backend="distributed"`` (partition shards on
worker threads) or ``backend="mp"`` (the same shards in forked worker
*processes*) — the latter two are one :class:`ShardExecutor` running a
:class:`ShardWorker` per shard over a thread or a process service cluster.
Every backend is the same :class:`Server`
(``start/stop/predict/predict_async/update/stats/version``) with one
documented ``stats()`` shape; :class:`Executor` is the seam between the two.

See ``docs/serving.md`` for the request lifecycle, micro-batch window
semantics, cache-consistency rules, the distributed request path, and the
thread-vs-process backend trade.
"""

from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServingConfig
from repro.serving.server import Executor, Server
from repro.serving.executors import LocalExecutor, ShardExecutor, ShardWorker
from repro.serving.factory import create_server

__all__ = [
    "EmbeddingCache",
    "Executor",
    "LocalExecutor",
    "Server",
    "ServingConfig",
    "ShardExecutor",
    "ShardWorker",
    "create_server",
]
