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
    _event_array,
    _integer,
    _require_finite,
    dist_from_log_weights,
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
    IndexOutOfRange,
    LengthMismatch,
    ParamOutOfRange,
    PreconditionViolation,
    SpaceMismatch,
    TiltsNotCentered,
)
from .constructions import random_decomposition
from .pooling import Decomposition, log_pool

__all__ = [
    "LogProfile",
    "centered_profiles",
    "first_order_delta_l",
    "CompensationReport",
    "compensation_bound",
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

#: Drop a span direction whose squared singular value is at most this times the largest.
PIVOT_REL_TOL = 1e-10

#: A squared singular value at most this is arithmetic noise, never a span direction.
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
        _require_finite(arr, "log profile")
        arr.flags.writeable = False
        object.__setattr__(self, "v", arr)
        mean = expect(self.base, arr)
        if abs(mean) > PROFILE_CENTERING_TOL:
            raise TiltsNotCentered(
                f"profile mean under base is {mean!r}, expected 0 within "
                f"{PROFILE_CENTERING_TOL}"
            )


def _stack(profiles: Sequence[LogProfile]) -> tuple[Dist, np.ndarray]:
    """The shared base of ``profiles`` and their vectors as rows (n, m)."""
    if len(profiles) == 0:
        raise LengthMismatch("need at least one profile")
    base = profiles[0].base
    for prof in profiles[1:]:
        if prof.base.space != base.space or not np.array_equal(prof.base.p, base.p):
            raise SpaceMismatch("profiles must share one base distribution")
    return base, np.stack([prof.v for prof in profiles])


def _combine(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i coef_i * rows_i, added up row by row as a loop would (not BLAS)."""
    return sum(coef[:, None] * rows, np.zeros(rows.shape[-1]))


def _require_budget(epsilon: float) -> None:
    if not 0.0 < epsilon < np.inf:
        raise ParamOutOfRange("the budget must be positive and finite")


def _event_direction(P: Dist, event: Sequence[int]) -> np.ndarray:
    """The indicator of a proper-subset ``event``, centered under P."""
    idx = _event_array(P.space, event, allow_full=False)
    g = np.zeros(P.space.size)
    g[idx] = 1.0
    return g - P.p[idx].sum()


def centered_profiles(decomp: Decomposition) -> list[LogProfile]:
    """The children's log-probability vectors, centered under the parent."""
    if decomp.pool_kind != "log":
        raise PreconditionViolation("profiles are defined for log-pool decompositions")
    parent = decomp.parent
    logs = np.log(np.stack([child.p for child in decomp.children]))
    return [LogProfile(parent, v) for v in logs - (parent.p * logs).sum(axis=-1, keepdims=True)]


def first_order_delta_l(
    profiles: Sequence[LogProfile], dbeta: Sequence[float]
) -> tuple[ScoreFn, Callable[[float], float]]:
    """Predicted log-deviation for a weight change, plus its residual probe.

    ``predicted = sum_i dbeta_i * v_i``; ``dbeta`` must sum to zero.  The
    returned ``residual_norm_fn(t)`` is ``‖ΔL(t) − t·predicted‖`` in the
    base-weighted norm for the re-pool at the scaled change ``t * dbeta``.
    Shifting the pool weights by ``t·dbeta`` tilts the pooled log-vector by
    exactly ``t·predicted`` up to the normalization constant, so
    ``ΔL(t) − t·predicted`` is the constant ``−log E_P[exp(t·predicted)]``
    and its norm is that constant's absolute value.  It is evaluated as
    ``|log1p(E_P[expm1(t·predicted)])|``, which stays accurate when the
    residual is far below the rounding of ``log P``.
    """
    base, V = _stack(profiles)
    d = np.asarray(dbeta, dtype=float).reshape(-1)
    if d.shape[0] != len(V):
        raise LengthMismatch(f"{d.shape[0]} weight changes for {len(V)} profiles")
    total = float(d.sum())
    if abs(total) > 1e-12:
        raise DbetaNotZeroSum(f"weight changes sum to {total!r}, expected 0")
    predicted = _combine(d, V)

    def residual_norm_fn(t: float) -> float:
        return abs(float(np.log1p((base.p * np.expm1(t * predicted)).sum())))

    return ScoreFn(base.space, predicted), residual_norm_fn


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
    epsilon: float | None,
    dbeta: Sequence[float],
) -> CompensationReport:
    """Evaluate the compensation inequality for an actual weight change.

    Amplify child ``h_index`` by ``delta`` via the zero-sum change ``dbeta``
    while the realized log-deviation stays within ``epsilon`` in the
    parent-weighted norm; an ``epsilon`` of None budgets 1.25 times the
    realized deviation plus 1e-9.  The residual is computed exactly from one
    re-pool of ``beta + dbeta`` (re-pooled deviation minus the linear
    prediction), so both sides of the inequality are finite-precision
    numbers, not asymptotic bounds.  Inner products within
    :data:`ALIGNMENT_DEAD_ZONE` of zero classify as aligned.
    """
    h_index = _integer(h_index, "amplified index", IndexOutOfRange)
    profiles = centered_profiles(decomp)
    predicted = first_order_delta_l(profiles, dbeta)[0].f
    d = np.asarray(dbeta, dtype=float).reshape(-1)
    n = len(profiles)
    if not (0 <= h_index < n):
        raise DbetaInconsistent(f"amplified index {h_index} outside [0, {n})")
    if not delta > 0.0:
        raise DbetaInconsistent("the amplification delta must be positive")
    if abs(d[h_index] - delta) > 1e-15:
        raise DbetaInconsistent(
            f"dbeta[{h_index}] = {d[h_index]!r} does not equal delta = {delta!r}"
        )

    base, V = _stack(profiles)
    shifted = log_pool(decomp.children, Weights(decomp.weights.beta + d))
    delta_l = shifted.log_p - base.log_p
    delta_l_norm = norm_p(base, delta_l)
    if epsilon is None:
        epsilon = delta_l_norm * 1.25 + 1e-9
    if delta_l_norm > epsilon * (1.0 + 1e-12):
        raise BudgetViolated(
            f"realized deviation {delta_l_norm!r} exceeds the budget {epsilon!r}"
        )

    target = V[h_index]
    target_norm = norm_p(base, target)
    inner = (base.p * V * target).sum(axis=-1)
    anti = tuple(int(i) for i in range(n) if inner[i] < -ALIGNMENT_DEAD_ZONE)
    aligned = tuple(int(i) for i in range(n) if inner[i] >= -ALIGNMENT_DEAD_ZONE)
    residual_norm = norm_p(base, delta_l - predicted)

    lhs = float(sum(max(d[i], 0.0) * abs(inner[i]) for i in anti))
    downgrade_term = float(sum(max(-d[j], 0.0) * inner[j] for j in aligned))
    forced = delta * target_norm**2 - (epsilon + residual_norm) * target_norm
    rhs = forced - downgrade_term

    single = len(anti) == 1
    counter_index = anti[0] if single else None
    counter_lower_bound = None
    if single and abs(inner[counter_index]) > 0.0:
        counter_lower_bound = forced / abs(inner[counter_index])
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
        aligned_not_downgraded=bool(downgrade_term <= ALIGNMENT_DEAD_ZONE),
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
    return compensation_bound(decomp, h_index, float(d[h_index]), None, d)


def event_first_order(
    P: Dist, event: Sequence[int], delta_l: ScoreFn
) -> tuple[float, float]:
    """Exact and linearized change of P(event) under a log-deviation.

    Returns ``(exact, linear)`` where exact = P'(event) − P(event) for
    P' ∝ P·exp(delta_l), and linear = ⟨delta_l, g⟩_P with g the centered
    indicator of the event.  Their difference shrinks quadratically as
    delta_l is scaled down.
    """
    g = _event_direction(P, event)
    if delta_l.space != P.space:
        raise SpaceMismatch("log-deviation must live on the distribution's space")
    shifted = dist_from_log_weights(P.space, P.log_p + delta_l.f)
    exact = shifted.prob_of(event) - P.prob_of(event)
    return float(exact), float(inner_p(P, delta_l.f, g))


def _p_orthonormal_basis(base: Dist, vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of span{rows of vectors} in the base-weighted
    inner product.

    One SVD of the √p-scaled rows, taken on their tall transpose: a left
    singular vector whose squared singular value falls to
    :data:`PIVOT_REL_TOL` times the largest, or to :data:`ZERO_PIVOT_ABS`,
    spans a dependent (or noise) direction and is dropped; the kept ones,
    divided by √p, are orthonormal under p.
    """
    root = np.sqrt(base.p)
    u, s, _ = np.linalg.svd((vectors * root).T, full_matrices=False)
    keep = s * s > max(PIVOT_REL_TOL * s.max(initial=0.0) ** 2, ZERO_PIVOT_ABS)
    return u[:, keep].T / root


def _project(base: Dist, basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Base-weighted projection of ``vec`` onto the orthonormal rows of ``basis``."""
    return _combine((base.p * vec * basis).sum(axis=-1), basis)


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
    profiles: Sequence[LogProfile], event: Sequence[int], epsilon: float
) -> SuppressionPlan:
    """Best first-order reduction of P(event) within the profile span.

    Over log-deviations confined to span{v_i} with base-weighted norm at
    most ``epsilon``, the reduction is maximized by pointing exactly
    opposite the span-projection of the event's centered indicator; the
    optimum equals epsilon times that projection's norm.
    """
    _require_budget(epsilon)
    base, V = _stack(profiles)
    g = _event_direction(base, event)
    basis = _p_orthonormal_basis(base, V)
    if not len(basis):
        raise DegenerateSpan("every profile is numerically zero")
    proj = _project(base, basis, g)
    proj_norm = norm_p(base, proj)
    if proj_norm <= _ZERO_PROJECTION_REL * norm_p(base, g):
        delta_l, achieved, proj_norm = np.zeros_like(g), 0.0, 0.0
    else:
        delta_l, achieved = -epsilon * proj / proj_norm, float(epsilon * proj_norm)
    return SuppressionPlan(
        base=base,
        delta_l=ScoreFn(base.space, delta_l),
        budget=float(epsilon),
        achieved=achieved,
        projection_norm=float(proj_norm),
        span_dim=len(basis),
        zero_projection=proj_norm == 0.0,
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
    ``w_in_span``, the enlarged span is the old one and the gain is zero.
    """
    _require_budget(epsilon)
    base, V = _stack([*profiles, w])
    g = _event_direction(base, event)
    basis0 = _p_orthonormal_basis(base, V[:-1])
    proj0 = _project(base, basis0, g)
    sq_base = inner_p(base, proj0, proj0)
    base_value = epsilon * float(np.sqrt(max(sq_base, 0.0)))

    u = V[-1] - _project(base, basis0, V[-1])
    u_norm = norm_p(base, u)
    in_span = u_norm < SPAN_MEMBERSHIP_TOL
    if in_span:
        basis1, sq_direct, correlation = basis0, sq_base, 0.0
    else:
        basis1 = _p_orthonormal_basis(base, V)
        proj1 = _project(base, basis1, g)
        sq_direct = inner_p(base, proj1, proj1)
        correlation = inner_p(base, g, u) / u_norm
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
        sq_enlarged_pythagoras=float(sq_base + correlation**2),
        closed_form_gain=float(epsilon * abs(correlation)),
        w_in_span=in_span,
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
