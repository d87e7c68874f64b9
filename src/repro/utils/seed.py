"""Global random-number-generator management and deterministic stream derivation.

All stochastic components of the library (parameter initialization, dropout,
synthetic dataset generation, label augmentation) draw from a single global
:class:`numpy.random.Generator` so that an experiment is fully reproducible
from one call to :func:`set_seed`.

Components that run concurrently (the mini-batch sampler's thread-pool
prefetch path, distributed workers) cannot share the sequential global
stream without making results depend on scheduling order.  A distributed
worker draws from its own generator (:func:`thread_rng`).  For the rest, the
module provides *counter-based* derivation: :func:`mix_seed` folds any tuple
of integers into a 64-bit key, :func:`derive_rng` turns such a key into an
independent Philox generator, and :func:`hash_u64` hashes whole integer
arrays at once.  Two derivations with the same inputs always produce the
same stream, regardless of which thread asks first — this is the mechanism
behind the neighbour sampler's reproducibility guarantee.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

import numpy as np

_DEFAULT_SEED = 0
_rng: np.random.Generator = np.random.default_rng(_DEFAULT_SEED)
#: per-thread override of ``_rng`` (:func:`thread_rng`)
_thread = threading.local()

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele et al., "Fast splittable pseudorandom number
# generators") — the standard finalizer used to decorrelate sequential keys.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def set_seed(seed: int) -> None:
    """Reset the library-wide random generator.

    Parameters
    ----------
    seed:
        Any integer accepted by :func:`numpy.random.default_rng`.
    """
    global _rng
    _rng = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    """The calling thread's generator (:func:`thread_rng`), else the library-wide one."""
    return getattr(_thread, "rng", None) or _rng


@contextlib.contextmanager
def thread_rng(rng: np.random.Generator) -> Iterator[np.random.Generator]:
    """Make ``rng`` what :func:`get_rng` returns on the calling thread only.

    Whatever the thread had installed before is put back on exit.  While it
    is installed, the thread does not see :func:`set_seed` or
    :func:`temp_seed` swap the library-wide generator.
    """
    saved = getattr(_thread, "rng", None)
    _thread.rng = rng
    try:
        yield rng
    finally:
        _thread.rng = saved


# --------------------------------------------------------------------------- #
# deterministic key / stream derivation (counter-based, order-independent)
# --------------------------------------------------------------------------- #
def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer over a 64-bit integer."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX_A) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_B) & _MASK64
    return value ^ (value >> 31)


def mix_seed(*parts: int) -> int:
    """Fold any tuple of integers into one well-mixed 64-bit key.

    Deterministic and sensitive to order and arity: ``mix_seed(a, b)`` and
    ``mix_seed(b, a)`` differ, as do ``mix_seed(a)`` and ``mix_seed(a, 0)``.
    Used to derive per-(epoch, batch, layer) sampling keys from one user seed.
    """
    acc = splitmix64(len(parts))
    for part in parts:
        acc = splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def hash_u64(values: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64 hash of an integer array under ``salt``.

    Returns a ``uint64`` array of the same length.  The hash of a value never
    depends on its position, so subsets hashed on different workers (or
    threads) agree element-wise with the full array hashed at once.
    """
    x = np.asarray(values).astype(np.uint64, copy=True)
    x ^= np.uint64(salt & _MASK64)
    x += np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def derive_rng(*parts: int) -> np.random.Generator:
    """An independent Philox generator keyed by ``mix_seed(*parts)``.

    Unlike :func:`get_rng`, the returned generator does not share state with
    anything: the same ``parts`` always yield the same stream, which makes it
    safe to use from prefetch threads and replicated distributed workers.
    """
    key = mix_seed(*parts)
    return np.random.Generator(
        np.random.Philox(key=np.array([key, splitmix64(key)], dtype=np.uint64))
    )


@contextlib.contextmanager
def temp_seed(seed: Optional[int]) -> Iterator[np.random.Generator]:
    """Temporarily swap the global generator for a seeded one.

    Useful inside dataset generators and tests that must not perturb the
    global random stream.  If ``seed`` is ``None`` the global generator is
    used unchanged.
    """
    global _rng
    if seed is None:
        yield _rng
        return
    saved = _rng
    _rng = np.random.default_rng(seed)
    try:
        yield _rng
    finally:
        _rng = saved
