"""Seeded random instance generators shared across the test modules: the
library's own copies, so tests draw exactly what the ``verify`` suites and the
``experiment`` analyses draw.  ``transported`` moves a decomposition onto a
target for the transport tests."""

import numpy as np

from logpool import Decomposition, Dist, rng_from
from logpool.constructions import (  # noqa: F401  (re-exported to the tests)
    random_decomposition,
    random_dist,
    random_family,
    random_strict_weights,
)
from logpool.stability import transport_rows


def seeded(seed: int, *path: int) -> np.random.Generator:
    return rng_from(seed, *path)


def transported(decomp: Decomposition, target: Dist) -> Decomposition:
    """``decomp`` moved onto ``target``: every child transported with base =
    the parent, certified as a decomposition of ``target`` with the same
    weights at the fresh-pool tolerance."""
    rows = transport_rows(np.stack([c.p for c in decomp.children]), decomp.parent.p, target.p)
    return Decomposition(target, tuple(Dist(target.space, r) for r in rows), decomp.weights)
