"""Shared utilities: seeding, logging, validation, and timing helpers."""

from repro.utils.seed import (
    set_seed,
    get_rng,
    temp_seed,
    splitmix64,
    mix_seed,
    hash_u64,
    derive_rng,
)
from repro.utils.logging import get_logger
from repro.utils.lru import LRUDict
from repro.utils.timing import Timer, WorkerTimer
from repro.utils.validation import (
    check_1d_int_array,
    check_positive_int,
    check_probability,
)

__all__ = [
    "set_seed",
    "get_rng",
    "temp_seed",
    "splitmix64",
    "mix_seed",
    "hash_u64",
    "derive_rng",
    "get_logger",
    "LRUDict",
    "Timer",
    "WorkerTimer",
    "check_1d_int_array",
    "check_positive_int",
    "check_probability",
]
