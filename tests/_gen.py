"""Seeded random instance generators shared across the test modules: the
library's own copies, so tests draw exactly what the ``verify`` suites and the
``experiment`` analyses draw.  ``transported`` moves a decomposition onto a
target for the transport tests, and ``personas`` draws next-token
distributions at vocabulary size for the JSON writer's tests."""

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


def personas(seed: int, m: int, n: int) -> np.ndarray:
    """``n`` next-token distributions over ``m`` outcomes, drawn like the
    benchmark's personas: a Zipf(1.1) base over a seeded token order, 0.3-nat
    jitter and +2 nats on a 2 % topic subset."""
    rng = np.random.default_rng([seed, 7])
    base = -1.1 * np.log(rng.permutation(m) + 1.0)
    out = np.empty((n, m))
    for i in range(n):
        lw = base + 0.3 * rng.standard_normal(m)
        lw[rng.choice(m, size=m // 50, replace=False)] += 2.0
        p = np.exp(lw - lw.max())
        out[i] = p / p.sum()
    return out
