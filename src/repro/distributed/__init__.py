"""Distributed runtime: the communicator, its thread backend, the job helper, the cost model.

The forked-process backend lives in :mod:`repro.distributed.mp_backend`
(imported on demand: it needs the ``fork`` start method).
"""

from repro.distributed.comm import Communicator, CommStats
from repro.distributed.thread_backend import (
    ThreadCommunicator,
    SharedStore,
    ClusterAborted,
)
from repro.distributed.cluster import ClusterRunResult, run_distributed
from repro.distributed.cost_model import (
    ClusterSpec,
    EpochCostReport,
    WorkerCost,
    epoch_cost,
    scaling_table,
    PAPER_LIKE_SPEC,
    COMM_BOUND_SPEC,
    PREFETCH_OVERLAP_TAGS,
)

__all__ = [
    "Communicator",
    "CommStats",
    "ThreadCommunicator",
    "SharedStore",
    "ClusterAborted",
    "ClusterRunResult",
    "run_distributed",
    "ClusterSpec",
    "EpochCostReport",
    "WorkerCost",
    "epoch_cost",
    "scaling_table",
    "PAPER_LIKE_SPEC",
    "COMM_BOUND_SPEC",
    "PREFETCH_OVERLAP_TAGS",
]
