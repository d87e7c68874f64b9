"""Distributed runtime: the communicator, its data plane, the job helper.

Both cluster drivers run their ranks over one shared-memory data plane
(:mod:`repro.distributed.plane`); the thread driver backs
:func:`run_distributed`, and the forked-process driver lives in
:mod:`repro.distributed.mp_backend` (imported on demand: it needs the
``fork`` start method).
"""

from repro.distributed.comm import Communicator, CommStats
from repro.distributed.plane import ArenaCommunicator, WorkerFailedError
from repro.distributed.cluster import ClusterRunResult, run_distributed

__all__ = [
    "Communicator",
    "CommStats",
    "ArenaCommunicator",
    "WorkerFailedError",
    "ClusterRunResult",
    "run_distributed",
]
