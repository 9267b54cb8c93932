"""Seeded random instance generators shared across the test modules: the
library's own copies, so tests draw exactly what the ``verify`` suites and the
``experiment`` analyses draw."""

import numpy as np

from logpool import rng_from
from logpool.constructions import (  # noqa: F401  (re-exported to the tests)
    random_decomposition,
    random_dist,
    random_family,
    random_strict_weights,
)


def seeded(seed: int, *path: int) -> np.random.Generator:
    return rng_from(seed, *path)
