"""Small self-contained utilities shared across the library."""

from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import RandomSource, derive_seed, spawn_rng
from repro.utils.validation import (
    check_probability,
    check_sign_value,
    check_weight,
)

__all__ = [
    "DisjointSet",
    "RandomSource",
    "derive_seed",
    "spawn_rng",
    "check_probability",
    "check_sign_value",
    "check_weight",
]
