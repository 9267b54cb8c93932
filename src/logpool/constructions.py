"""Generators for the explicit instance families used in existence and
impossibility demonstrations.

Three families, each parameterized by a peakedness scale ``epsilon``:

* cyclic welfare — n agents on n outcomes whose log-pool is exactly uniform
  and whose (artificial, non-epistemic) welfare functions all strictly gain;
* analytic unanimity — n agents on n+1 outcomes sharing a dominant outcome,
  each holding a small private stake; strictly unanimous for small epsilon;
* peaked incompatible — n near-point-mass agents on n outcomes for which the
  weight-averaged welfare change is strictly negative at small epsilon, for
  every strictly positive weight vector.

How small "small epsilon" must be is discovered by logarithmic grid search
(:func:`find_epsilon_for_unanimity`), recorded in reports, and never hard-coded.

The seeded random instances are one array-level draw each,
:func:`random_probs`, :func:`random_beta` and the weight change of
:func:`random_weight_change`; :func:`random_dist`,
:func:`random_strict_weights`, :func:`random_family` and
:func:`random_decomposition` wrap them in objects.  The ``verify`` suites, the
``experiment`` analyses and the tests all draw from this one copy.  A leading
``batch`` shape draws that many instances with one generator call per draw,
(*batch, ...), whose rows are the unbatched calls made one after another on
the same stream; the shift and normalization run once over the whole array.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    Dist,
    OutcomeSpace,
    ScoreFn,
    Weights,
    dist_from_log_weights,
    make_dist,
    normalize_rows,
    require_weight_rows,
    _integer,
)
from .errors import DegenerateWeights, NotFound, ParamOutOfRange
from .pooling import Decomposition, log_pool_arrays, make_decomposition
from .welfare import UNANIMITY_TOL, gap_terms

__all__ = [
    "EPSILON_GRID",
    "CyclicInstance",
    "cyclic_welfare_instance",
    "analytic_unanimity_instance",
    "find_epsilon_for_unanimity",
    "peaked_incompatible_family",
    "binary_gap_closed_form",
    "single_counteragent_instance",
]

#: The search grid for peakedness thresholds: 10^(-k/4), k = 1..40.
EPSILON_GRID: tuple[float, ...] = tuple(10.0 ** (-k / 4.0) for k in range(1, 41))


class CyclicInstance(NamedTuple):
    agents: tuple[Dist, ...]
    weights: Weights
    welfares: tuple[ScoreFn, ...]


def cyclic_welfare_instance(n: int, epsilon: float, C: float) -> CyclicInstance:
    """n agents on n outcomes with rotationally symmetric beliefs and welfare.

    Agent i puts mass 1-(n-1)*epsilon on outcome i and epsilon elsewhere;
    its welfare is 0 on the *next* outcome (cyclically) and -C on the rest.
    Under uniform weights the log-pool is exactly uniform by symmetry, and
    each agent's expected welfare rises from -C(1-epsilon) to -C(n-1)/n,
    a strict improvement of C(1/n - epsilon) > 0.
    """
    n = _integer(n, "agent count")
    if n < 2:
        raise ParamOutOfRange("need n >= 2 agents")
    if not (0.0 < epsilon < 1.0 / n):
        raise ParamOutOfRange(f"epsilon must lie in (0, 1/{n})")
    if not C > 0.0:
        raise ParamOutOfRange("C must be positive")
    raw, welfare = cyclic_welfare_rows(n, epsilon, C)
    space = OutcomeSpace(n)
    agents = tuple(make_dist(space, row) for row in raw)
    return CyclicInstance(agents, Weights.uniform(n), tuple(ScoreFn(space, w) for w in welfare))


def cyclic_welfare_rows(n: int, epsilon, C: float) -> tuple[np.ndarray, np.ndarray]:
    """The raw agents of :func:`cyclic_welfare_instance`, (..., n, n) for
    ``epsilon`` of shape (...), and its welfare values (n, n); not validated."""
    eps = np.asarray(epsilon, dtype=float)[..., None, None]
    raw = np.repeat(np.repeat(eps, n, axis=-2), n, axis=-1)
    raw[..., np.arange(n), np.arange(n)] = (1.0 - (n - 1) * eps)[..., 0]
    welfare = np.full((n, n), -float(C))
    welfare[np.arange(n), (np.arange(n) + 1) % n] = 0.0
    return raw, welfare


def analytic_unanimity_instance(
    n: int, epsilon: float, weights: Weights | None = None
) -> Decomposition:
    """n agents on n+1 outcomes: one shared dominant outcome, one private each.

    Agent i puts mass 1 - a - (n-1)*d on the shared outcome 0, a = epsilon on
    its private outcome i, and d = epsilon^(n+1) on the other private
    outcomes.  The log-pool concentrates even harder on the shared outcome:
    its unnormalized mass at private outcome i is epsilon^((n+1) - n*beta_i),
    an exponent strictly above 1 whenever beta_i < 1.  For small epsilon all
    welfare gaps are strictly positive.
    """
    agents, weights = _analytic_agents(n, epsilon, weights)
    space = OutcomeSpace(agents.shape[-1])
    return make_decomposition([Dist(space, p) for p in agents], weights, "log")


def _analytic_agents(n: int, epsilon: float, weights: Weights | None) -> tuple[np.ndarray, Weights]:
    """The normalized, validated agents (n, n+1) of an analytic instance and
    its weights (uniform for None), its arguments checked."""
    n = _integer(n, "agent count")
    if n < 2:
        raise ParamOutOfRange("need n >= 2 agents")
    if not (0.0 < epsilon < 0.25):
        raise ParamOutOfRange("epsilon must lie in (0, 1/4)")
    if weights is None:
        weights = Weights.uniform(n)
    if weights.n != n:
        raise ParamOutOfRange(f"{weights.n} weights for {n} agents")
    if np.any(weights.beta >= 1.0):
        raise DegenerateWeights(
            "a weight equal to 1 collapses the pool onto a single agent"
        )
    return normalize_rows(analytic_unanimity_rows(n, epsilon)), weights


def analytic_unanimity_rows(n: int, epsilon) -> np.ndarray:
    """The raw (unnormalized) agents of :func:`analytic_unanimity_instance`,
    (..., n, n+1) for ``epsilon`` of shape (...); not validated."""
    eps = np.asarray(epsilon, dtype=float)[..., None, None]
    delta = eps ** (n + 1)
    raw = np.repeat(np.repeat(delta, n, axis=-2), n + 1, axis=-1)
    raw[..., 0] = (1.0 - eps - (n - 1) * delta)[..., 0]
    raw[..., np.arange(n), np.arange(1, n + 1)] = eps[..., 0]
    return raw


def find_epsilon_for_unanimity(n: int, weights: Weights | None = None) -> float:
    """Largest grid epsilon making the analytic instance strictly unanimous.

    Walks :data:`EPSILON_GRID` from large to small and returns the first
    (hence largest) epsilon whose instance has every gap strictly positive.
    Each step scores the instance's rows, with no objects built.
    Existence is guaranteed for small enough epsilon, so exhausting the grid
    raises :class:`NotFound` — which indicates a bug, not an unlucky input.
    """
    for eps in (e for e in EPSILON_GRID if e < 0.25):
        agents, weights = _analytic_agents(n, eps, weights)
        pooled = log_pool_arrays(np.log(agents), weights.beta)[0]
        if (gap_terms(agents, pooled)[0] > UNANIMITY_TOL).all():
            return eps
    raise NotFound(
        f"no strictly unanimous epsilon on the grid for n={n}; "
        "this should be impossible"
    )


def peaked_incompatible_family(n: int, epsilon: float) -> list[Dist]:
    """n near-point-mass agents on n outcomes: P_i(i)=1-eps, else eps/(n-1)."""
    n = _integer(n, "agent count")
    if n < 2:
        raise ParamOutOfRange("need n >= 2 agents")
    if not (0.0 < epsilon < 0.5):
        raise ParamOutOfRange("epsilon must lie in (0, 1/2)")
    space = OutcomeSpace(n)
    return [make_dist(space, raw) for raw in peaked_incompatible_rows(n, epsilon)]


def peaked_incompatible_rows(n: int, epsilon) -> np.ndarray:
    """The raw agents of :func:`peaked_incompatible_family`, (..., n, n) for
    ``epsilon`` of shape (...); not validated."""
    eps = np.asarray(epsilon, dtype=float)[..., None, None]
    raw = np.repeat(np.repeat(eps / (n - 1), n, axis=-2), n, axis=-1)
    raw[..., np.arange(n), np.arange(n)] = 1.0 - eps[..., 0]
    return raw


def binary_gap_closed_form(x_i, x):
    """Closed-form welfare gap on two outcomes.

    For an agent holding mass ``x_i`` on the first outcome, against a pool
    holding mass ``x`` there, the gap is (x - x_i) * log(x_i / (1 - x_i)).
    Scalars give a float; arrays broadcast elementwise.
    """
    x_i, x = np.asarray(x_i, dtype=float), np.asarray(x, dtype=float)
    if not (((0.0 < x_i) & (x_i < 1.0)).all() and ((0.0 < x) & (x < 1.0)).all()):
        raise ParamOutOfRange("both masses must lie in (0, 1)")
    gap = (x - x_i) * np.log(x_i / (1.0 - x_i))
    return float(gap) if gap.ndim == 0 else gap


def single_counteragent_instance(
    delta: float, scale: float = 1.0
) -> tuple[Decomposition, int, np.ndarray]:
    """Three agents with weights (0.5, 0.3, 0.2) over a uniform pool, with
    exactly one counteracting profile.

    The first agent's centered log-profile is ``scale * g`` for a fixed unit
    direction g; the second agent's profile points exactly opposite, rescaled
    so the weighted profiles cancel; the third agent is uniform (zero
    profile).  Returns ``(decomp, 0, dbeta)`` where ``dbeta`` amplifies the
    first agent by ``delta``, raises the second in the canceling proportion,
    and drains the third — so the re-pooled distribution is unchanged and the
    realized log-deviation is zero to machine precision.

    Amplification under any budget ``epsilon < delta * scale`` then forces a
    strictly positive lower bound on the second agent's weight increase, and
    the deliberate increase built into ``dbeta`` meets it.
    """
    if not delta > 0.0:
        raise ParamOutOfRange("delta must be positive")
    if not scale > 0.0:
        raise ParamOutOfRange("scale must be positive")
    b = np.array([0.5, 0.3, 0.2])
    space = OutcomeSpace(4)
    g = np.array([3.0, -1.0, -1.0, -1.0]) / np.sqrt(3.0)
    ratio = b[0] / b[1]
    profiles = [scale * g, -ratio * scale * g, np.zeros(4)]
    children = [dist_from_log_weights(space, v) for v in profiles]
    decomp = make_decomposition(children, Weights(b), "log")
    dbeta = np.array([delta, delta / ratio, -delta * (1.0 + 1.0 / ratio)])
    if b[2] + dbeta[2] <= 0.0:
        raise ParamOutOfRange(
            "delta too large: the third agent's weight would go nonpositive"
        )
    return decomp, 0, dbeta


def random_probs(
    rng: np.random.Generator, m: int, n: int | None = None, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """A strictly positive random probability vector of length ``m`` (or
    ``n`` of them, (n, m), drawn in order), bounded away from zero:
    gamma(1.5, 1) + 0.02, normalized and validated as :func:`~logpool.core.make_dist`
    does; (*batch, m) or (*batch, n, m) for a batch shape."""
    raw = rng.gamma(1.5, 1.0, (*batch, m) if n is None else (*batch, n, m))
    return normalize_rows(raw + 0.02)


def random_beta(rng: np.random.Generator, n: int, batch: tuple[int, ...] = ()) -> np.ndarray:
    """n strictly positive weights: 0.15 + U[0, 1), normalized and validated
    as :class:`~logpool.core.Weights` validates ((*batch, n) for a batch
    shape)."""
    raw = 0.15 + rng.random((*batch, n))
    beta = raw / raw.sum(axis=-1, keepdims=True)
    require_weight_rows(beta)
    return beta


def random_weight_change(
    rng: np.random.Generator, m: int, n: int, scale: float, batch: tuple[int, ...] = ()
) -> tuple[tuple, np.ndarray]:
    """``(agents, beta, d), usable``: :func:`random_decomposition`'s draws
    (n, m) and (n,), then a standard normal weight change d (n,), centered and
    scaled to a largest entry of ``scale``; usable when d amplifies argmax d
    and keeps every weight positive.  A batch shape leads each array."""
    agents, beta = random_probs(rng, m, n, batch), random_beta(rng, n, batch)
    d = rng.standard_normal((*batch, n))
    d -= d.mean(axis=-1, keepdims=True)
    d *= scale / np.maximum(1e-12, np.abs(d).max(axis=-1, keepdims=True))
    return (agents, beta, d), (d.max(axis=-1) > 0.0) & (beta + d > 0.0).all(axis=-1)


def random_event(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random event of 1 to m - 2 distinct outcomes of ``m`` (size first,
    then the outcomes; an event of size m - 1 is never drawn)."""
    return rng.choice(m, size=int(rng.integers(1, m - 1)), replace=False)


def random_dist(rng: np.random.Generator, space: OutcomeSpace) -> Dist:
    """:func:`random_probs` on ``space``."""
    return Dist(space, random_probs(rng, space.size))


def random_strict_weights(rng: np.random.Generator, n: int) -> Weights:
    """:func:`random_beta` as :class:`~logpool.core.Weights`."""
    return Weights(random_beta(rng, n))


def random_family(rng: np.random.Generator, m: int, n: int) -> tuple[list[Dist], Weights]:
    """n random agents on one m-outcome space, then their strict weights."""
    space = OutcomeSpace(m)
    agents = [Dist(space, p) for p in random_probs(rng, m, n)]
    return agents, random_strict_weights(rng, n)


def random_decomposition(
    rng: np.random.Generator, m: int, n: int, kind: str = "log"
) -> Decomposition:
    """The ``kind`` pool of :func:`random_family`'s agents and weights."""
    return make_decomposition(*random_family(rng, m, n), kind)
