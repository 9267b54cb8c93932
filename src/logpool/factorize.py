"""Decomposing a parent into child subagents.

Three construction routes:

* free factorization into pairwise-distinct children (seeded);
* factorization around caller-fixed children, solving for one balancing child;
* compatible splits of a single child into two subagents whose weighted
  log-pool reproduces it — which provably leaves the global pool unchanged.

Plus the demonstration that a parent's welfare benefit need not pass down to
a subagent produced by such a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Dist,
    ScoreFn,
    Weights,
    dist_from_log_weights,
    require_prob_rows,
    require_weight_rows,
    rng_from,
    softmax,
    tv,
    uniform,
    _integer,
    _require_finite,
    _tv_rows,
)
from .errors import (
    IndexOutOfRange,
    DistinctnessFailure,
    NonPositiveEntry,
    ParamOutOfRange,
    PreconditionViolation,
    SpaceMismatch,
    UniformParent,
    WeightTooConcentrated,
)
from .pooling import Decomposition, log_pool, log_pool_arrays
from .welfare import welfare_gap

__all__ = [
    "DISTINCTNESS_TV",
    "LAMBDA_SWEEP",
    "factor_pairwise_distinct",
    "factor_with_fixed",
    "compatible_split",
    "split_invariance_check",
    "ParentBenefitReport",
    "parent_benefit_counterexample",
    "ParentBenefitSweep",
    "parent_benefit_sweep",
]

#: Children closer than this (in tv) to each other or to the parent count as
#: coincident.  An artifact constant, recorded in provenance blocks.
DISTINCTNESS_TV = 1e-6

#: How many derived seeds to try before declaring distinctness unreachable.
RETRY_BUDGET = 16

#: Base magnitude for the seeded reference tilts; child i uses
#: TILT_MAGNITUDE_BASE * (1 + (i+1)/n) so no two magnitudes coincide.
TILT_MAGNITUDE_BASE = 0.05

#: Depression-strength schedule for the parent-benefit counterexample.
LAMBDA_SWEEP: tuple[float, ...] = tuple(float(2**k) for k in range(13))


def _balanced_children(
    parent: np.ndarray, beta: np.ndarray, fixed: np.ndarray, solved: int, draws: np.ndarray
) -> np.ndarray:
    """Stacked children (..., n, m) of parents (..., m) with weights (..., n):
    the ``fixed`` rows (..., k, m), then at each later index i but ``solved``
    the uniform reference tilted along its row of ``draws`` (..., n - k - 1,
    m), centered and scaled to magnitude TILT_MAGNITUDE_BASE * (1 + (i+1)/n)
    in sup-norm, then at ``solved`` the child that makes the weighted log-pool
    equal the parent exactly.  Rows are validated as ``Dist`` does."""
    n, k, m = beta.shape[-1], fixed.shape[-2], parent.shape[-1]
    free = [i for i in range(k, n) if i != solved]
    g = draws - draws.mean(axis=-1, keepdims=True)
    scale = np.abs(g).max(axis=-1, keepdims=True)
    magnitude = TILT_MAGNITUDE_BASE * (1.0 + (np.array(free) + 1) / n)
    # ones: the solved row, filled last, has a finite (unused) log until then
    children = np.ones(beta.shape + (m,))
    children[..., :k, :] = fixed
    children[..., free, :] = softmax(magnitude[:, None] * (g / scale))[0]
    require_prob_rows(children[..., free, :])
    logs = np.log(children)
    mixed = np.zeros(parent.shape)
    for i in range(n):
        if i != solved:
            mixed += beta[..., i, None] * logs[..., i, :]
    b = beta[..., solved, None]
    gamma = 1.0 - b
    log_w = (np.log(parent) - gamma * (mixed / gamma)) / b
    _require_finite(log_w, "log-weight vector")
    children[..., solved, :] = softmax(log_w)[0]
    require_prob_rows(children[..., solved, :])
    return children


def _distinct_children(
    parent: np.ndarray, beta: np.ndarray, solved: int, redraw: Callable, draws: np.ndarray
) -> np.ndarray:
    """Stacked :func:`factor_pairwise_distinct` children from each instance's
    normal ``draws`` (..., n - 1, m); instance r (flat index) whose family is
    not separated redraws from the stream ``redraw(r, attempt)``."""
    fixed = np.empty(parent.shape[:-1] + (0, parent.shape[-1]))
    draws = np.array(draws)  # a copy; redraws land in it through its flat view
    rows, retry = draws.reshape(-1, *draws.shape[-2:]), ()
    for attempt in range(RETRY_BUDGET):
        for r in retry:
            rows[r] = redraw(r, attempt).standard_normal(rows.shape[1:])
        children = _balanced_children(parent, beta, fixed, solved, draws)
        family = np.concatenate([parent[..., None, :], children], axis=-2)
        a, b = np.triu_indices(family.shape[-2], 1)
        tvs = _tv_rows(family[..., a, :], family[..., b, :])
        retry = np.flatnonzero(~(tvs.min(axis=-1) > DISTINCTNESS_TV))
        if retry.size == 0:
            return children
    raise DistinctnessFailure(
        f"could not separate children after {RETRY_BUDGET} seeds; "
        "the outcome space is too small for distinct factors"
    )


def factor_pairwise_distinct(parent: Dist, weights: Weights, seed: int) -> Decomposition:
    """Factor ``parent`` into children that are pairwise distinct and distinct
    from the parent.

    All children except one are seeded exponential tilts of the uniform
    reference with distinct magnitudes; the remaining child (the lowest index
    carrying positive weight) absorbs whatever is left so the weighted
    log-pool equals the parent exactly.  Seeds are retried (derived
    deterministically from ``seed``) until every pairwise tv distance
    exceeds :data:`DISTINCTNESS_TV`.
    """
    if int(np.count_nonzero(weights.beta > 0.0)) < 2:
        raise WeightTooConcentrated(
            "need at least two strictly positive weights to factor"
        )
    absorber = int(np.argmax(weights.beta > 0.0))
    draws = rng_from(seed, 0).standard_normal((weights.n - 1, parent.space.size))
    redraw = lambda r, attempt: rng_from(seed, attempt)  # noqa: E731
    children = _distinct_children(parent.p, weights.beta, absorber, redraw, draws)
    return Decomposition(parent, tuple(Dist(parent.space, c) for c in children), weights, "log")


def factor_with_fixed(
    parent: Dist, fixed: Sequence[Dist], weights: Weights, seed: int
) -> Decomposition:
    """Factor ``parent`` with the first ``len(fixed)`` children prescribed.

    With k fixed children, child k is solved for and children k+1..n-1 are
    free (seeded small tilts of the uniform reference).  Requires n >= k+2,
    a strictly positive weight on the solved child, and positive weight
    somewhere among the fixed children.
    """
    k = len(fixed)
    n = weights.n
    if n < k + 2:
        raise PreconditionViolation(
            f"need at least {k + 2} children to fix {k} of them, got {n}"
        )
    if not weights.beta[k] > 0.0:
        raise PreconditionViolation("the solved child must carry positive weight")
    if not np.any(weights.beta[:k] > 0.0):
        raise PreconditionViolation(
            "at least one fixed child must carry positive weight"
        )
    for f in fixed:
        if f.space != parent.space:
            raise SpaceMismatch("fixed children must share the parent's space")
    draws = rng_from(seed, 0).standard_normal((n - k - 1, parent.space.size))
    rows = _balanced_children(parent.p, weights.beta, np.stack([f.p for f in fixed]), k, draws)
    children = (*fixed, *(Dist(parent.space, c) for c in rows[k:]))
    return Decomposition(parent, children, weights, "log")


def compatible_split(child: Dist, alpha: float, g: ScoreFn) -> tuple[Dist, Dist]:
    """Split one child into two subagents compatible with it.

    Returns (first, second) with log first = log child + (1-alpha)*g and
    log second = log child - alpha*g, each normalized, so that the
    (alpha, 1-alpha) log-pool of the pair is the child again.
    """
    if not (0.0 < alpha < 1.0):
        raise ParamOutOfRange("alpha must lie strictly between 0 and 1")
    if g.space != child.space:
        raise SpaceMismatch("tilt and child must share an outcome space")
    first, second = (Dist(child.space, q) for q in _split_pieces(child.log_p, alpha, g.f))
    return first, second


def _split_pieces(log_child: np.ndarray, alpha, g: np.ndarray) -> np.ndarray:
    """Stacked :func:`compatible_split` of log-probabilities (..., m) along g
    (..., m) at alpha (...): the pieces (..., 2, m), validated as ``Dist``."""
    alpha = np.asarray(alpha)[..., None, None]
    coefficients = np.concatenate([1.0 - alpha, -alpha], axis=-2)
    log_w = log_child[..., None, :] + coefficients * g[..., None, :]
    _require_finite(log_w, "log-weight vector")
    pieces = softmax(log_w)[0]
    require_prob_rows(pieces[..., 0, :])
    require_prob_rows(pieces[..., 1, :])
    return pieces


def _split_repool(parent, children, beta, idx, alpha, pieces) -> np.ndarray:
    """Stacked re-pool of :func:`split_invariance_check`: child ``idx`` (...)
    of each family (..., n, m) replaced by its ``pieces`` (..., 2, m) with
    weights (alpha*beta_i, (1-alpha)*beta_i); the tv (...) from the parent."""
    idx, alpha = np.asarray(idx)[..., None], np.asarray(alpha)[..., None]
    j = np.arange(beta.shape[-1] + 1)
    source = j - (j > idx)  # the old child at each position of the split family
    family = np.take_along_axis(children, source[..., None], axis=-2)
    refined, b = np.take_along_axis(beta, source, -1), np.take_along_axis(beta, idx, -1)
    np.put_along_axis(family, (idx + [0, 1])[..., None], pieces, axis=-2)
    np.put_along_axis(refined, idx + [0, 1], np.concatenate([alpha * b, (1.0 - alpha) * b], -1), -1)
    require_weight_rows(refined)
    repooled = log_pool_arrays(np.log(family), refined)[0]
    require_prob_rows(repooled)
    return _tv_rows(repooled, parent)


def split_invariance_check(
    decomp: Decomposition, child_index: int, alpha: float, g: ScoreFn
) -> tuple[Dist, Dist, float]:
    """Replace one child by its compatible split and re-pool globally.

    The split pieces enter with weights (alpha*beta_i, (1-alpha)*beta_i).
    Returns the two subagents and the tv distance between the re-pooled
    distribution and the original parent (provably ~0; asserted <= 1e-10
    by the verification suites).
    """
    if decomp.pool_kind != "log":
        raise PreconditionViolation("splitting is defined for log-pool decompositions")
    child_index = _integer(child_index, "child index", IndexOutOfRange)
    if not (0 <= child_index < decomp.n):
        raise IndexOutOfRange(
            f"child index {child_index} outside [0, {decomp.n})"
        )
    first, second = compatible_split(decomp.children[child_index], alpha, g)
    children, pieces = np.stack([c.p for c in decomp.children]), np.stack([first.p, second.p])
    beta = decomp.weights.beta
    delta = _split_repool(decomp.parent.p, children, beta, child_index, alpha, pieces)
    return first, second, float(delta)


@dataclass(frozen=True, slots=True)
class ParentBenefitReport:
    """One point of the parent-benefit-not-inherited demonstration."""

    pool: Dist
    sharpness: float
    alpha: float
    o_star: int
    depression: float
    parent_gap: float
    subagent_gap: float
    depressed_child: Dist
    partner_child: Dist


def parent_benefit_counterexample(
    P1: Dist, t: float, alpha: float, o_star: int, lam: float
) -> ParentBenefitReport:
    """A benefiting child whose subagent can be made to lose.

    The pool is the sharpened distribution P_t ∝ P1^t, realized as the
    (1/2, 1/2) log-pool of P1 with a partner ∝ P1^(2t-1).  For t > 1 and
    non-uniform P1 the child P1 strictly gains.  Splitting P1 with a tilt
    that puts weight -lam on outcome ``o_star`` leaves the pool untouched,
    but for large lam the depressed subagent's gap turns negative.
    """
    if not t > 1.0:
        raise ParamOutOfRange("sharpness t must exceed 1")
    if not (0.0 < alpha < 1.0):
        raise ParamOutOfRange("alpha must lie strictly between 0 and 1")
    if not lam > 0.0:
        raise ParamOutOfRange("depression strength must be positive")
    o_star = _integer(o_star, "outcome index", IndexOutOfRange)
    if not (0 <= o_star < P1.space.size):
        raise IndexOutOfRange(f"outcome index {o_star} outside the space")
    if tv(P1, uniform(P1.space)) <= 1e-12:
        raise UniformParent(
            "a uniform distribution gains nothing from sharpening; "
            "the demonstration is void"
        )
    partner = dist_from_log_weights(P1.space, (2.0 * t - 1.0) * P1.log_p)
    pool = log_pool([P1, partner], Weights.uniform(2))
    g = np.zeros(P1.space.size)
    g[o_star] = -lam
    depressed, partner_sub = compatible_split(P1, alpha, ScoreFn(P1.space, g))
    return ParentBenefitReport(
        pool=pool,
        sharpness=t,
        alpha=alpha,
        o_star=o_star,
        depression=lam,
        parent_gap=welfare_gap(P1, pool),
        subagent_gap=welfare_gap(depressed, pool),
        depressed_child=depressed,
        partner_child=partner_sub,
    )


@dataclass(frozen=True, slots=True)
class ParentBenefitSweep:
    """Depression sweep: the first strength at which the subagent loses."""

    parent_gap: float
    rows: tuple[tuple[float, float], ...]  # (lambda, subagent gap)
    first_losing_lambda: float | None


def parent_benefit_sweep(P1: Dist, t: float, alpha: float, o_star: int) -> ParentBenefitSweep:
    """:func:`parent_benefit_counterexample` at each strength of
    :data:`LAMBDA_SWEEP`, stopping early where the subagent underflows."""
    rows = []
    first = None
    parent_gap = None
    for lam in LAMBDA_SWEEP:
        try:
            rep = parent_benefit_counterexample(P1, t, alpha, o_star, lam)
        except NonPositiveEntry:
            # Depression strength pushed the subagent's mass at o_star below
            # the float64 range (exp(-(1-alpha)*lam) underflows around
            # lam*(1-alpha) ~ 745).  The sign change of interest happens at
            # small strengths; larger ones are simply unrepresentable, so the
            # sweep records what exists and stops.
            if not rows:
                raise
            break
        parent_gap = rep.parent_gap
        rows.append((float(lam), rep.subagent_gap))
        if first is None and rep.subagent_gap < 0.0:
            first = float(lam)
    return ParentBenefitSweep(
        parent_gap=float(parent_gap), rows=tuple(rows), first_losing_lambda=first
    )
