"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.datasets import make_sbm_dataset
from repro.graph import Graph, stochastic_block_model
from repro.utils.prefetch import THREAD_PREFIX as PREFETCH_THREAD_PREFIX
from repro.utils.seed import set_seed

# The autouse seed fixture below is function-scoped; it only resets the global
# seed, which is safe to share across Hypothesis examples.
hypothesis_settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
# The nightly job sets HYPOTHESIS_PROFILE=nightly for a wide search; it widens
# every property test that does not pin its own ``max_examples``.
hypothesis_settings.register_profile(
    "nightly", parent=hypothesis_settings.get_profile("repro"), max_examples=500
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


#: seconds any one test may run (the whole suite takes ~20 s); past it, every
#: thread's stack is dumped and the test fails instead of hanging the run.
TEST_DEADLINE_S = 120

#: seconds a prefetch thread still alive after its test may take to exit
PREFETCH_JOIN_S = 5.0


@pytest.fixture(autouse=True)
def _deadline(request):
    """Nothing may hang: fail a test that outlives ``TEST_DEADLINE_S``."""
    if not hasattr(signal, "SIGALRM"):  # no alarm signal off POSIX
        yield
        return

    def expired(signum, frame):
        faulthandler.dump_traceback(all_threads=True)
        pytest.fail(
            f"{request.node.nodeid} exceeded the {TEST_DEADLINE_S}s per-test deadline",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _no_leaked_prefetch_threads(request):
    """Fail the test that leaks a prefetch thread, not a later one.

    Each surviving thread gets ``PREFETCH_JOIN_S`` to finish (an abandoned
    run's running item completes on its own) before the test is failed.
    """
    yield
    leaked = []
    for thread in threading.enumerate():
        if thread.name.startswith(PREFETCH_THREAD_PREFIX):
            thread.join(PREFETCH_JOIN_S)
            if thread.is_alive():
                leaked.append(thread.name)
    if leaked:
        pytest.fail(f"{request.node.nodeid} leaked prefetch threads: {leaked}", pytrace=False)


@pytest.fixture(autouse=True)
def _reset_seed():
    """Make every test deterministic and independent of execution order."""
    set_seed(1234)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def tiny_graph() -> Graph:
    """A fixed 6-node bidirected graph with self-loops (hand-checkable)."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 3), (2, 5)]
    src, dst = zip(*edges)
    graph = Graph(6, np.array(src), np.array(dst)).to_bidirected().add_self_loops()
    return graph


@pytest.fixture
def sbm_graph() -> Graph:
    """A small homophilous SBM graph with self-loops (120 nodes, 3 blocks)."""
    graph, _ = stochastic_block_model([40, 40, 40], p_in=0.15, p_out=0.02, seed=3)
    return graph.add_self_loops()


@pytest.fixture
def small_dataset():
    """A small but learnable node-classification dataset (4 classes)."""
    return make_sbm_dataset(
        name="unit-test-sbm",
        num_nodes=240,
        num_classes=4,
        feature_dim=12,
        p_in=0.12,
        p_out=0.01,
        noise=1.5,
        train_frac=0.5,
        val_frac=0.2,
        test_frac=0.3,
        seed=11,
    )
