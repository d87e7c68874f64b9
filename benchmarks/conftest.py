"""Benchmark fixtures: session-scoped datasets shared across figures.

The figure modules time their kernels on one BLAS/OpenMP thread, as
``benchmarks/e2e`` does, so a timed forward does not spread over the host's
cores and take in whatever else runs there.  The pools read the thread
variables once, when numpy loads; a standalone ``pytest benchmarks`` imports
this file first.  A session that loaded numpy earlier (say, one that also
collects ``tests/``) keeps its pools, and gets a warning saying so.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import harness  # noqa: E402  (imports neither numpy nor repro)

if "numpy" in sys.modules:
    warnings.warn(
        "numpy was loaded before benchmarks/conftest.py; its BLAS/OpenMP pools keep "
        "their thread counts, so the figures' CPU times may exceed their wall times",
        stacklevel=1,
    )
harness.pin_threads()

import pytest


@pytest.fixture(scope="session")
def products_dataset():
    from repro.datasets import ogbn_products_mini

    return ogbn_products_mini(scale=0.5)


@pytest.fixture(scope="session")
def papers_dataset():
    from repro.datasets import ogbn_papers_mini

    return ogbn_papers_mini(scale=0.4)


@pytest.fixture(scope="session")
def mag_dataset():
    from repro.datasets import ogbn_mag_mini

    return ogbn_mag_mini(scale=0.4)
