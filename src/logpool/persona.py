"""First-order persona machinery on the pool's log-geometry.

Each child of a log-pool decomposition induces a *centered log profile*:
its log-probability vector centered to mean zero under the parent.  Profiles
are the directions in log-space that weight changes can move the pool along;
everything in this module is linear analysis in the parent-weighted inner
product:

* predicted log-deviation for a weight change, with its exact residual;
* the compensation inequality: amplifying one profile under a small-change
  budget forces weight onto profiles anti-aligned with it;
* first-order change of an event probability and its optimal suppression
  over the profile span (a constrained projection problem);
* the exact squared-norm gain from enlarging the span by an elicited
  direction;
* the second-order KL cost of a log-deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Dist,
    ScoreFn,
    Weights,
    cov,
    dist_from_log_weights,
    event_indices,
    expect,
    inner_p,
    kl,
    norm_p,
)
from .errors import (
    BudgetViolated,
    DbetaInconsistent,
    DbetaNotZeroSum,
    DegenerateSpan,
    LengthMismatch,
    ParamOutOfRange,
    PreconditionViolation,
    SpaceMismatch,
    TiltsNotCentered,
)
from .constructions import random_decomposition
from .pooling import Decomposition, log_pool

__all__ = [
    "PROFILE_CENTERING_TOL",
    "ALIGNMENT_DEAD_ZONE",
    "PIVOT_REL_TOL",
    "SPAN_MEMBERSHIP_TOL",
    "LogProfile",
    "centered_profiles",
    "first_order_delta_l",
    "CompensationReport",
    "compensation_bound",
    "random_compensation_report",
    "event_first_order",
    "SuppressionPlan",
    "optimal_suppression",
    "ProjectionGainReport",
    "projection_gain",
    "kl_budget",
]

#: A profile's mean under its base must vanish to this tolerance.
PROFILE_CENTERING_TOL = 1e-10

#: Inner products within this dead zone of zero classify as aligned.
ALIGNMENT_DEAD_ZONE = 1e-12

#: Relative pivot threshold for dropping dependent vectors from a span.
PIVOT_REL_TOL = 1e-10

#: Absolute squared-norm floor below which a pivot is arithmetic noise.
ZERO_PIVOT_ABS = 1e-24

#: Below this norm, the candidate new direction counts as already in the span.
SPAN_MEMBERSHIP_TOL = 1e-10

#: Relative threshold under which a projection counts as zero.
_ZERO_PROJECTION_REL = 1e-12


@dataclass(frozen=True, slots=True)
class LogProfile:
    """A log-probability direction centered under its base distribution."""

    base: Dist
    v: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.v, dtype=float).copy().reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "v", arr)
        if arr.shape[0] != self.base.space.size:
            raise LengthMismatch(
                f"profile has length {arr.shape[0]}, space has {self.base.space.size}"
            )
        mean = expect(self.base, arr)
        if abs(mean) > PROFILE_CENTERING_TOL:
            raise TiltsNotCentered(
                f"profile mean under base is {mean!r}, expected 0 within "
                f"{PROFILE_CENTERING_TOL}"
            )

    @property
    def space(self):
        return self.base.space


def _require_shared_base(profiles: Sequence[LogProfile]) -> Dist:
    if len(profiles) == 0:
        raise LengthMismatch("need at least one profile")
    base = profiles[0].base
    for prof in profiles[1:]:
        if prof.base.space != base.space or not np.array_equal(prof.base.p, base.p):
            raise SpaceMismatch("profiles must share one base distribution")
    return base


def centered_profiles(decomp: Decomposition) -> list[LogProfile]:
    """The children's log-probability vectors, centered under the parent."""
    if decomp.pool_kind != "log":
        raise PreconditionViolation("profiles are defined for log-pool decompositions")
    parent = decomp.parent
    out = []
    for child in decomp.children:
        v = child.log_p - expect(parent, child.log_p)
        out.append(LogProfile(parent, v))
    return out


def first_order_delta_l(
    profiles: Sequence[LogProfile], dbeta: Sequence[float]
) -> tuple[ScoreFn, Callable[[float], float]]:
    """Predicted log-deviation for a weight change, plus its residual probe.

    ``predicted = sum_i dbeta_i * v_i``.  The returned ``residual_norm_fn(t)``
    is ``‖ΔL(t) − t·predicted‖`` in the base-weighted norm for the re-pool at
    the scaled change ``t * dbeta``.  Shifting the pool weights by ``t·dbeta``
    tilts the pooled log-vector by exactly ``t·predicted`` up to the
    normalization constant, so ``ΔL(t) − t·predicted`` is the constant
    ``−log E_P[exp(t·predicted)]`` and its norm is that constant's absolute
    value.  It is evaluated as ``|log1p(E_P[expm1(t·predicted)])|``, which
    stays accurate when the residual is far below the rounding of ``log P``.
    """
    base = _require_shared_base(profiles)
    d = np.asarray(dbeta, dtype=float).reshape(-1)
    if d.shape[0] != len(profiles):
        raise LengthMismatch(f"{d.shape[0]} weight changes for {len(profiles)} profiles")
    total = float(d.sum())
    if abs(total) > 1e-12:
        raise DbetaNotZeroSum(f"weight changes sum to {total!r}, expected 0")
    predicted_vec = np.zeros(base.space.size)
    for di, prof in zip(d, profiles):
        predicted_vec += di * prof.v
    predicted = ScoreFn(base.space, predicted_vec)

    def residual_norm_fn(t: float) -> float:
        return abs(float(np.log1p((base.p * np.expm1(t * predicted_vec)).sum())))

    return predicted, residual_norm_fn


@dataclass(frozen=True, slots=True)
class CompensationReport:
    """Both sides of the compensation inequality, with every ingredient.

    ``slack = lhs − rhs`` is the inequality margin (provably >= 0 up to
    floating point).  When exactly one profile is anti-aligned with the
    amplified one, ``counter_lower_bound`` is the explicit lower bound on
    that profile's weight increase.  The bound drops the aligned-downgrade
    term from the right-hand side, so it is valid exactly when that term
    vanishes — no aligned profile with positive correlation lost weight —
    which ``aligned_not_downgraded`` records.
    """

    h_index: int
    delta: float
    budget: float
    inner_products: np.ndarray
    anti_indices: tuple[int, ...]
    aligned_indices: tuple[int, ...]
    target_norm: float
    residual_norm: float
    delta_l_norm: float
    lhs: float
    rhs: float
    slack: float
    single_anti_aligned: bool
    counter_index: int | None
    counter_lower_bound: float | None
    aligned_not_downgraded: bool

    def __post_init__(self) -> None:
        arr = np.asarray(self.inner_products, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "inner_products", arr)


def compensation_bound(
    decomp: Decomposition,
    h_index: int,
    delta: float,
    epsilon: float,
    dbeta: Sequence[float],
    dead_zone: float = ALIGNMENT_DEAD_ZONE,
) -> CompensationReport:
    """Evaluate the compensation inequality for an actual weight change.

    Amplify child ``h_index`` by ``delta`` via the zero-sum change ``dbeta``
    while the realized log-deviation stays within ``epsilon`` in the
    parent-weighted norm.  The residual is computed exactly (re-pooled
    deviation minus the linear prediction), so both sides of the inequality
    are finite-precision numbers, not asymptotic bounds.
    """
    profiles = centered_profiles(decomp)
    n = len(profiles)
    d = np.asarray(dbeta, dtype=float).reshape(-1)
    if d.shape[0] != n:
        raise LengthMismatch(f"{d.shape[0]} weight changes for {n} children")
    if not (0 <= h_index < n):
        raise DbetaInconsistent(f"amplified index {h_index} outside [0, {n})")
    if not delta > 0.0:
        raise DbetaInconsistent("the amplification delta must be positive")
    if abs(d[h_index] - delta) > 1e-15:
        raise DbetaInconsistent(
            f"dbeta[{h_index}] = {d[h_index]!r} does not equal delta = {delta!r}"
        )
    total = float(d.sum())
    if abs(total) > 1e-12:
        raise DbetaNotZeroSum(f"weight changes sum to {total!r}, expected 0")

    base = decomp.parent
    shifted = log_pool(decomp.children, Weights(decomp.weights.beta + d))
    delta_l = shifted.log_p - base.log_p
    delta_l_norm = norm_p(base, delta_l)
    if delta_l_norm > epsilon * (1.0 + 1e-12):
        raise BudgetViolated(
            f"realized deviation {delta_l_norm!r} exceeds the budget {epsilon!r}"
        )

    target = profiles[h_index]
    target_norm = norm_p(base, target.v)
    inner = np.array([inner_p(base, prof.v, target.v) for prof in profiles])
    anti = tuple(int(i) for i in range(n) if inner[i] < -dead_zone)
    aligned = tuple(int(i) for i in range(n) if inner[i] >= -dead_zone)

    predicted = np.zeros(base.space.size)
    for di, prof in zip(d, profiles):
        predicted += di * prof.v
    residual_norm = norm_p(base, delta_l - predicted)

    lhs = float(sum(max(d[i], 0.0) * abs(inner[i]) for i in anti))
    downgrade_term = float(sum(max(-d[j], 0.0) * inner[j] for j in aligned))
    rhs = (
        delta * target_norm**2
        - (epsilon + residual_norm) * target_norm
        - downgrade_term
    )

    single = len(anti) == 1
    counter_index = anti[0] if single else None
    counter_lower_bound = None
    if single and abs(inner[counter_index]) > 0.0:
        counter_lower_bound = (
            delta * target_norm**2 - (epsilon + residual_norm) * target_norm
        ) / abs(inner[counter_index])
    return CompensationReport(
        h_index=h_index,
        delta=float(delta),
        budget=float(epsilon),
        inner_products=inner,
        anti_indices=anti,
        aligned_indices=aligned,
        target_norm=target_norm,
        residual_norm=residual_norm,
        delta_l_norm=delta_l_norm,
        lhs=lhs,
        rhs=float(rhs),
        slack=float(lhs - rhs),
        single_anti_aligned=single,
        counter_index=counter_index,
        counter_lower_bound=counter_lower_bound,
        aligned_not_downgraded=bool(downgrade_term <= dead_zone),
    )


def random_compensation_report(
    rng_for: Callable[[int], np.random.Generator],
    sizes: Callable[[np.random.Generator], tuple[int, int]],
    scale: float,
) -> CompensationReport:
    """:func:`compensation_bound` for a random zero-sum weight change.

    Attempt k (of 50) draws from ``rng_for(k)``: the outcome and agent counts
    ``sizes(rng)``, a random decomposition, then a centered change ``d``
    scaled to a largest entry of ``scale`` that amplifies h = argmax d.  The
    first attempt that keeps every weight positive is used (the last one
    otherwise), with a budget of 1.25 times the realized deviation plus 1e-9.
    """
    for attempt in range(50):
        rng = rng_for(attempt)
        decomp = random_decomposition(rng, *sizes(rng))
        d = rng.standard_normal(decomp.n)
        d -= d.mean()
        d *= scale / max(1e-12, float(np.abs(d).max()))
        h_index = int(d.argmax())
        if d[h_index] > 0 and bool((decomp.weights.beta + d > 0).all()):
            break
    shifted = log_pool(list(decomp.children), Weights(decomp.weights.beta + d))
    realized = norm_p(decomp.parent, shifted.log_p - decomp.parent.log_p)
    return compensation_bound(decomp, h_index, float(d[h_index]), realized * 1.25 + 1e-9, d)


def event_first_order(
    P: Dist, event: Sequence[int], delta_l: ScoreFn
) -> tuple[float, float]:
    """Exact and linearized change of P(event) under a log-deviation.

    Returns ``(exact, linear)`` where exact = P'(event) − P(event) for
    P' ∝ P·exp(delta_l), and linear = ⟨delta_l, g⟩_P with g the centered
    indicator of the event.  Their difference shrinks quadratically as
    delta_l is scaled down.
    """
    idx = event_indices(P.space, event)
    if delta_l.space != P.space:
        raise SpaceMismatch("log-deviation must live on the distribution's space")
    shifted = dist_from_log_weights(P.space, P.log_p + delta_l.f)
    exact = shifted.prob_of(idx) - P.prob_of(idx)
    g = np.zeros(P.space.size)
    g[list(idx)] = 1.0
    g -= P.prob_of(idx)
    linear = inner_p(P, delta_l.f, g)
    return float(exact), float(linear)


def _p_orthonormal_basis(
    base: Dist, vectors: Sequence[np.ndarray], rel_tol: float = PIVOT_REL_TOL
) -> list[np.ndarray]:
    """Orthonormal basis of span{vectors} in the base-weighted inner product.

    Pivoted elimination on the Gram system: at each step the vector with the
    largest remaining squared norm is normalized and swept out of the rest;
    remainders whose pivot falls below ``rel_tol`` times the largest original
    pivot are dependent and get dropped.  An absolute floor of
    :data:`ZERO_PIVOT_ABS` keeps pure arithmetic noise (children identical up
    to rounding) from masquerading as a one-dimensional span.
    """
    work = [np.array(v, dtype=float) for v in vectors]
    norms2 = [inner_p(base, v, v) for v in work]
    if not norms2:
        return []
    pivot_floor = max(rel_tol * max(norms2), ZERO_PIVOT_ABS)
    basis: list[np.ndarray] = []
    remaining = list(range(len(work)))
    while remaining:
        j = max(remaining, key=lambda i: norms2[i])
        if norms2[j] <= pivot_floor:
            break
        e = work[j] / np.sqrt(norms2[j])
        basis.append(e)
        remaining.remove(j)
        for i in remaining:
            work[i] = work[i] - inner_p(base, work[i], e) * e
            norms2[i] = inner_p(base, work[i], work[i])
    return basis


def _project(base: Dist, basis: Sequence[np.ndarray], vec: np.ndarray) -> np.ndarray:
    proj = np.zeros_like(vec)
    for e in basis:
        proj += inner_p(base, vec, e) * e
    return proj


@dataclass(frozen=True, slots=True)
class SuppressionPlan:
    """The optimal budget-constrained log-deviation against an event.

    ``achieved = budget * projection_norm`` is the maximal first-order
    probability reduction; ``delta_l`` realizes it.  ``zero_projection``
    flags the degenerate-but-legal case where the event direction is
    orthogonal to the whole span (nothing can be done; achieved = 0).
    """

    base: Dist
    delta_l: ScoreFn
    budget: float
    achieved: float
    projection_norm: float
    span_dim: int
    zero_projection: bool

    def __post_init__(self) -> None:
        realized = norm_p(self.base, self.delta_l.f)
        if realized > self.budget * (1.0 + 1e-9):
            raise BudgetViolated(
                f"plan norm {realized!r} exceeds budget {self.budget!r}"
            )
        if abs(self.achieved - self.budget * self.projection_norm) > 1e-9:
            raise DbetaInconsistent(
                "achieved reduction must equal budget times projection norm"
            )


def optimal_suppression(
    profiles: Sequence[LogProfile],
    event: Sequence[int],
    epsilon: float,
    rel_tol: float = PIVOT_REL_TOL,
) -> SuppressionPlan:
    """Best first-order reduction of P(event) within the profile span.

    Over log-deviations confined to span{v_i} with base-weighted norm at
    most ``epsilon``, the reduction is maximized by pointing exactly
    opposite the span-projection of the event's centered indicator; the
    optimum equals epsilon times that projection's norm.
    """
    if not epsilon > 0.0:
        raise ParamOutOfRange("the budget must be positive")
    base = _require_shared_base(profiles)
    idx = event_indices(base.space, event)
    basis = _p_orthonormal_basis(base, [prof.v for prof in profiles], rel_tol)
    if not basis:
        raise DegenerateSpan("every profile is numerically zero")
    g = np.zeros(base.space.size)
    g[list(idx)] = 1.0
    g -= base.prob_of(idx)
    proj = _project(base, basis, g)
    proj_norm = norm_p(base, proj)
    if proj_norm <= _ZERO_PROJECTION_REL * norm_p(base, g):
        return SuppressionPlan(
            base=base,
            delta_l=ScoreFn.zero(base.space),
            budget=float(epsilon),
            achieved=0.0,
            projection_norm=0.0,
            span_dim=len(basis),
            zero_projection=True,
        )
    return SuppressionPlan(
        base=base,
        delta_l=ScoreFn(base.space, -epsilon * proj / proj_norm),
        budget=float(epsilon),
        achieved=float(epsilon * proj_norm),
        projection_norm=float(proj_norm),
        span_dim=len(basis),
        zero_projection=False,
    )


@dataclass(frozen=True, slots=True)
class ProjectionGainReport:
    """What adding one elicited direction buys the suppression optimum.

    The squared projection norms obey an exact Pythagoras identity:
    ``sq_enlarged = sq_base + correlation**2`` where ``correlation`` is the
    event direction's inner product with the unit new direction.  The
    identity is computed both ways (``sq_enlarged_direct`` from a fresh
    basis, ``sq_enlarged_pythagoras`` from the increment) so it can be
    asserted.  ``gain`` is the value-scale difference of suppression optima;
    ``closed_form_gain = budget * |correlation|`` is the increment applied
    on the value scale *as if* the baseline projection were zero — reported,
    never asserted equal to ``gain``.
    """

    budget: float
    gain: float
    u_norm: float
    correlation: float
    base_value: float
    enlarged_value: float
    sq_base: float
    sq_enlarged_direct: float
    sq_enlarged_pythagoras: float
    closed_form_gain: float
    w_in_span: bool
    base_dim: int
    enlarged_dim: int


def projection_gain(
    profiles: Sequence[LogProfile],
    w: LogProfile,
    event: Sequence[int],
    epsilon: float,
) -> ProjectionGainReport:
    """Enlarge the profile span by ``w`` and measure the suppression gain.

    ``u = w − Proj_span(w)`` is the genuinely new direction; when its norm
    falls below :data:`SPAN_MEMBERSHIP_TOL` the report is flagged
    ``w_in_span`` and the gain is zero.
    """
    if not epsilon > 0.0:
        raise ParamOutOfRange("the budget must be positive")
    base = _require_shared_base(list(profiles) + [w])
    idx = event_indices(base.space, event)
    vectors = [prof.v for prof in profiles]
    basis0 = _p_orthonormal_basis(base, vectors)
    g = np.zeros(base.space.size)
    g[list(idx)] = 1.0
    g -= base.prob_of(idx)

    proj0 = _project(base, basis0, g)
    sq_base = inner_p(base, proj0, proj0)
    base_value = epsilon * float(np.sqrt(max(sq_base, 0.0)))

    u = w.v - _project(base, basis0, w.v)
    u_norm = norm_p(base, u)
    if u_norm < SPAN_MEMBERSHIP_TOL:
        return ProjectionGainReport(
            budget=float(epsilon),
            gain=0.0,
            u_norm=float(u_norm),
            correlation=0.0,
            base_value=base_value,
            enlarged_value=base_value,
            sq_base=float(sq_base),
            sq_enlarged_direct=float(sq_base),
            sq_enlarged_pythagoras=float(sq_base),
            closed_form_gain=0.0,
            w_in_span=True,
            base_dim=len(basis0),
            enlarged_dim=len(basis0),
        )

    basis1 = _p_orthonormal_basis(base, vectors + [w.v])
    proj1 = _project(base, basis1, g)
    sq_direct = inner_p(base, proj1, proj1)
    correlation = inner_p(base, g, u) / u_norm
    sq_pythagoras = sq_base + correlation**2
    enlarged_value = epsilon * float(np.sqrt(max(sq_direct, 0.0)))
    return ProjectionGainReport(
        budget=float(epsilon),
        gain=float(enlarged_value - base_value),
        u_norm=float(u_norm),
        correlation=float(correlation),
        base_value=base_value,
        enlarged_value=enlarged_value,
        sq_base=float(sq_base),
        sq_enlarged_direct=float(sq_direct),
        sq_enlarged_pythagoras=float(sq_pythagoras),
        closed_form_gain=float(epsilon * abs(correlation)),
        w_in_span=False,
        base_dim=len(basis0),
        enlarged_dim=len(basis1),
    )


def kl_budget(P: Dist, delta_l: ScoreFn) -> tuple[float, float]:
    """Exact KL cost of a log-deviation next to its second-order estimate.

    Returns ``(kl_value, half_var)`` with kl_value = KL(P'‖P) for
    P' ∝ P·exp(delta_l) and half_var = Var_P(delta_l)/2.  Their ratio tends
    to 1 as the deviation is scaled down; constants cost nothing (the
    normalizer absorbs them, and a constant has zero variance).
    """
    if delta_l.space != P.space:
        raise SpaceMismatch("log-deviation must live on the distribution's space")
    shifted = dist_from_log_weights(P.space, P.log_p + delta_l.f)
    return kl(shifted, P), 0.5 * cov(P, delta_l.f, delta_l.f)
