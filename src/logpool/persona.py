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

The math runs in private kernels on stacked rows (parents p (B, m), profile
rows (B, n, m), one sorted index array per event); each public function is
their one-instance case, with no leading axis.  A kernel keeps the
one-instance arithmetic, so a row gives the same bits as the public call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Dist,
    ScoreFn,
    _combine,
    _cov,
    first_row,
    _event_array,
    _integer,
    _require_finite,
    expect,
    norm_p,
    require_weight_rows,
    softmax,
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
from .pooling import Decomposition, log_pool_arrays

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


# Stacked kernels over leading axes (...): the public functions below are
# their one-instance case, with no leading axis.

def _centered(p: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Log rows (..., n, m) centered under their parents p (..., m)."""
    return logs - (p[..., None, :] * logs).sum(axis=-1, keepdims=True)


def _inner(p: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The p-weighted inner products of rows f and g (last axis)."""
    return (p * f * g).sum(axis=-1)


def _norm(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_inner(p, f, f), 0.0))


def _residual(p: np.ndarray, predicted: np.ndarray, t: float) -> np.ndarray:
    """``|log E_p[exp(t·predicted)]|`` per row, as ``|log1p(E_p[expm1(·)])|``."""
    return np.abs(np.log1p((p * np.expm1(t * predicted)).sum(axis=-1)))


def _event_mass(p: np.ndarray, events: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's mass on its event (one sorted index array per row of p), as
    ``p[idx].sum()``: a masked sum over all m entries adds in another order."""
    mass = [row[idx].sum() for row, idx in zip(np.atleast_2d(p), events)]
    return np.reshape(mass, p.shape[:-1])


def _event_direction(p: np.ndarray, events: Sequence[np.ndarray]) -> np.ndarray:
    """Each event's indicator, centered under its row of p (..., m)."""
    g = np.zeros(p.shape)
    for row, idx in zip(np.atleast_2d(g), events):
        row[idx] = 1.0
    return g - _event_mass(p, events)[..., None]


def _p_orthonormal_basis(p: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (..., min(n, m), m) of span{rows} (..., n, m) under
    p, and their dimensions.

    One SVD per instance of the √p-scaled rows, on their tall transpose: a
    left singular vector whose squared singular value falls to
    :data:`PIVOT_REL_TOL` times the largest, or to :data:`ZERO_PIVOT_ABS`,
    is dropped (a zero row); the kept prefix, divided by √p, is orthonormal
    under p.  Each basis is C-contiguous, as a strided row of m >= 8 would be
    summed in another order.
    """
    root = np.sqrt(p)[..., None, :]
    u, s, _ = np.linalg.svd(np.swapaxes(rows * root, -1, -2), full_matrices=False)
    floor = np.maximum(PIVOT_REL_TOL * s.max(-1, keepdims=True, initial=0.0) ** 2, ZERO_PIVOT_ABS)
    keep = s * s > floor
    basis = np.divide(np.swapaxes(u, -1, -2), root, order="C")
    basis[~keep] = 0.0
    return basis, keep.sum(axis=-1)


def _project(p: np.ndarray, basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The p-weighted projection of each row of vec (..., m) onto its basis."""
    return _combine(((p * vec)[..., None, :] * basis).sum(axis=-1), basis)


def _compensation(p, logs, beta, d, h, delta, epsilon: float | None) -> dict:
    """:func:`compensation_bound`'s terms, for parents p (..., m), child log
    rows (..., n, m), weights beta and changes d (..., n) amplifying child h
    by delta; with the anti-aligned mask ``anti`` and the ``forced`` term."""
    V = _centered(p, logs)
    require_weight_rows(beta + d)
    delta_l = np.log(log_pool_arrays(logs, beta + d)[0]) - np.log(p)
    delta_l_norm = _norm(p, delta_l)
    budget = delta_l_norm * 1.25 + 1e-9 if epsilon is None else np.full_like(delta_l_norm, epsilon)
    over = delta_l_norm > budget * (1.0 + 1e-12)
    if over.any():
        row, where = first_row(over)
        raise BudgetViolated(
            f"realized deviation{where} {float(delta_l_norm[row])!r} exceeds the budget "
            f"{float(budget[row])!r}"
        )
    target = np.take_along_axis(V, np.asarray(h)[..., None, None], axis=-2)[..., 0, :]
    target_norm = _norm(p, target)
    inner = _inner(p[..., None, :], V, target[..., None, :])
    anti = inner < -ALIGNMENT_DEAD_ZONE
    residual_norm = _norm(p, delta_l - _combine(d, V))
    # each side sums its class's terms in index order, as a loop over it would
    lhs = _combine(np.where(anti, np.maximum(d, 0.0), 0.0), np.abs(inner)[..., None])[..., 0]
    downgrade = _combine(np.where(anti, 0.0, np.maximum(-d, 0.0)), inner[..., None])[..., 0]
    forced = delta * target_norm**2 - (budget + residual_norm) * target_norm
    rhs = forced - downgrade
    return dict(
        budget=budget, inner_products=inner, target_norm=target_norm, residual_norm=residual_norm,
        delta_l_norm=delta_l_norm, lhs=lhs, rhs=rhs, slack=lhs - rhs,
        aligned_not_downgraded=downgrade <= ALIGNMENT_DEAD_ZONE, anti=anti, forced=forced,
    )


def _event_change(p: np.ndarray, events, delta_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`event_first_order` for each row's event and log-deviation (..., m)."""
    shifted = softmax(np.log(p) + delta_l)[0]  # P' ∝ P·exp(delta_l)
    exact = _event_mass(shifted, events) - _event_mass(p, events)
    return exact, _inner(p, delta_l, _event_direction(p, events))


def _suppression(p, rows, g, epsilon: float) -> tuple[np.ndarray, ...]:
    """Each row's :func:`optimal_suppression` of event direction g (..., m):
    the plan's delta_l (..., m), achieved reduction, projection norm and span
    dimension."""
    basis, dim = _p_orthonormal_basis(p, rows)
    if not dim.all():
        raise DegenerateSpan(f"every profile is numerically zero{first_row(dim == 0)[1]}")
    proj = _project(p, basis, g)
    proj_norm = _norm(p, proj)
    zero = proj_norm <= _ZERO_PROJECTION_REL * _norm(p, g)
    proj_norm = np.where(zero, 0.0, proj_norm)
    out = np.zeros_like(proj)
    delta_l = np.divide(-epsilon * proj, proj_norm[..., None], out=out, where=~zero[..., None])
    return delta_l, epsilon * proj_norm, proj_norm, dim


def _projection_gain(p, rows, w, g, epsilon: float) -> dict:
    """:class:`ProjectionGainReport`'s fields, for enlarging span{rows}
    (..., n, m) by w (..., m) against event directions g (..., m)."""
    basis0, base_dim = _p_orthonormal_basis(p, rows)
    proj0 = _project(p, basis0, g)
    sq_base = _inner(p, proj0, proj0)
    u = w - _project(p, basis0, w)
    u_norm = _norm(p, u)
    basis1, dim1 = _p_orthonormal_basis(p, np.concatenate([rows, w[..., None, :]], axis=-2))
    # else the enlarged span is the old one: u is too small, or the enlarged
    # rows have no more numerical rank
    new = (u_norm >= SPAN_MEMBERSHIP_TOL) & (dim1 > base_dim)
    proj1 = _project(p, basis1, g)
    sq_direct = np.where(new, _inner(p, proj1, proj1), sq_base)
    correlation = np.divide(_inner(p, g, u), u_norm, out=np.zeros(p.shape[:-1]), where=new)
    base_value = epsilon * np.sqrt(np.maximum(sq_base, 0.0))
    enlarged_value = epsilon * np.sqrt(np.maximum(sq_direct, 0.0))
    return dict(
        budget=np.full(p.shape[:-1], float(epsilon)), gain=enlarged_value - base_value,
        u_norm=u_norm, correlation=correlation, base_value=base_value,
        enlarged_value=enlarged_value, sq_base=sq_base, sq_enlarged_direct=sq_direct,
        sq_enlarged_pythagoras=sq_base + correlation**2,
        closed_form_gain=epsilon * np.abs(correlation), w_in_span=~new, base_dim=base_dim,
        enlarged_dim=np.where(new, dim1, base_dim),
    )


def _kl_budget(p: np.ndarray, delta_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kl_budget` for each row's log-deviation (..., m)."""
    shifted = softmax(np.log(p) + delta_l)[0]
    return (shifted * (np.log(shifted) - np.log(p))).sum(axis=-1), 0.5 * _cov(p, delta_l, delta_l)


def _stack(profiles: Sequence[LogProfile]) -> tuple[Dist, np.ndarray]:
    """The shared base of ``profiles`` and their vectors as rows (n, m)."""
    if len(profiles) == 0:
        raise LengthMismatch("need at least one profile")
    base = profiles[0].base
    for prof in profiles[1:]:
        if prof.base.space != base.space or not np.array_equal(prof.base.p, base.p):
            raise SpaceMismatch("profiles must share one base distribution")
    return base, np.stack([prof.v for prof in profiles])


def _require_budget(epsilon: float) -> None:
    if not 0.0 < epsilon < np.inf:
        raise ParamOutOfRange("the budget must be positive and finite")


def _weight_change(dbeta: Sequence[float], n: int) -> np.ndarray:
    """``dbeta`` as a vector of n weight changes that sum to zero."""
    d = np.asarray(dbeta, dtype=float).reshape(-1)
    if d.shape[0] != n:
        raise LengthMismatch(f"{d.shape[0]} weight changes for {n} profiles")
    if abs(total := float(d.sum())) > 1e-12:
        raise DbetaNotZeroSum(f"weight changes sum to {total!r}, expected 0")
    return d


def _child_logs(decomp: Decomposition) -> np.ndarray:
    if decomp.pool_kind != "log":
        raise PreconditionViolation("profiles are defined for log-pool decompositions")
    return np.log(np.stack([child.p for child in decomp.children]))


def _span_rows(profiles: Sequence[LogProfile], event, epsilon: float) -> tuple:
    """A span problem's base, profile rows (n, m) and event direction (m,)."""
    _require_budget(epsilon)
    base, V = _stack(profiles)
    return base, V, _event_direction(base.p, [_event_array(base.space, event, allow_full=False)])


def centered_profiles(decomp: Decomposition) -> list[LogProfile]:
    """The children's log-probability vectors, centered under the parent."""
    parent = decomp.parent
    return [LogProfile(parent, v) for v in _centered(parent.p, _child_logs(decomp))]


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
    d = _weight_change(dbeta, len(V))
    predicted = _combine(d, V)

    def residual_norm_fn(t: float) -> float:
        return float(_residual(base.p, predicted, t))

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
    decomp: Decomposition, h_index: int, delta: float, epsilon: float | None,
    dbeta: Sequence[float],
) -> CompensationReport:
    """Evaluate the compensation inequality for an actual weight change.

    Amplify child ``h_index`` by ``delta`` via the zero-sum change ``dbeta``
    while the realized log-deviation stays within ``epsilon`` in the
    parent-weighted norm; ``epsilon`` must be positive and finite, and None
    budgets 1.25 times the realized deviation plus 1e-9.  The residual is
    computed exactly from one re-pool of ``beta + dbeta`` (re-pooled
    deviation minus the linear prediction), so both sides of the inequality
    are finite-precision numbers, not asymptotic bounds.  Inner products
    within :data:`ALIGNMENT_DEAD_ZONE` of zero classify as aligned.
    """
    h_index = _integer(h_index, "amplified index", IndexOutOfRange)
    if epsilon is not None:
        _require_budget(epsilon)
    logs = _child_logs(decomp)
    n = len(logs)
    d = _weight_change(dbeta, n)
    if not (0 <= h_index < n):
        raise DbetaInconsistent(f"amplified index {h_index} outside [0, {n})")
    if not delta > 0.0:
        raise DbetaInconsistent("the amplification delta must be positive")
    if abs(d[h_index] - delta) > 1e-15:
        raise DbetaInconsistent(
            f"dbeta[{h_index}] = {d[h_index]!r} does not equal delta = {delta!r}"
        )
    parent, beta = decomp.parent.p, decomp.weights.beta
    row = _compensation(parent, logs, beta, d, h_index, float(delta), epsilon)
    anti, forced, inner = row.pop("anti"), row.pop("forced"), row.pop("inner_products")
    anti_indices = tuple(np.flatnonzero(anti).tolist())
    single = len(anti_indices) == 1
    return CompensationReport(
        h_index=h_index, delta=float(delta), inner_products=inner, anti_indices=anti_indices,
        aligned_indices=tuple(np.flatnonzero(~anti).tolist()), single_anti_aligned=single,
        counter_index=anti_indices[0] if single else None,
        # an anti-aligned inner product is below -ALIGNMENT_DEAD_ZONE, never 0
        counter_lower_bound=forced / abs(inner[anti_indices[0]]) if single else None,
        **{key: value.item() for key, value in row.items()},
    )


def event_first_order(P: Dist, event: Sequence[int], delta_l: ScoreFn) -> tuple[float, float]:
    """Exact and linearized change of P(event) under a log-deviation.

    Returns ``(exact, linear)`` where exact = P'(event) − P(event) for
    P' ∝ P·exp(delta_l), and linear = ⟨delta_l, g⟩_P with g the centered
    indicator of the event.  Their difference shrinks quadratically as
    delta_l is scaled down.
    """
    events = [_event_array(P.space, event, allow_full=False)]
    if delta_l.space != P.space:
        raise SpaceMismatch("log-deviation must live on the distribution's space")
    exact, linear = _event_change(P.p, events, delta_l.f)
    return float(exact), float(linear)


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
            raise BudgetViolated(f"plan norm {realized!r} exceeds budget {self.budget!r}")
        if abs(self.achieved - self.budget * self.projection_norm) > 1e-9:
            raise DbetaInconsistent("achieved reduction must equal budget times projection norm")


def optimal_suppression(
    profiles: Sequence[LogProfile], event: Sequence[int], epsilon: float
) -> SuppressionPlan:
    """Best first-order reduction of P(event) within the profile span.

    Over log-deviations confined to span{v_i} with base-weighted norm at
    most ``epsilon``, the reduction is maximized by pointing exactly
    opposite the span-projection of the event's centered indicator; the
    optimum equals epsilon times that projection's norm.
    """
    base, V, g = _span_rows(profiles, event, epsilon)
    delta_l, achieved, proj_norm, dim = _suppression(base.p, V, g, epsilon)
    return SuppressionPlan(
        base, ScoreFn(base.space, delta_l), float(epsilon), float(achieved), float(proj_norm),
        int(dim), bool(proj_norm == 0.0),
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
    profiles: Sequence[LogProfile], w: LogProfile, event: Sequence[int], epsilon: float
) -> ProjectionGainReport:
    """Enlarge the profile span by ``w`` and measure the suppression gain.

    ``u = w − Proj_span(w)`` is the genuinely new direction; when its norm
    falls below :data:`SPAN_MEMBERSHIP_TOL`, or adding w leaves the numerical
    rank of the profiles unchanged (:data:`PIVOT_REL_TOL`), the report is
    flagged ``w_in_span``, the enlarged span is the old one and the gain is
    zero.
    """
    base, V, g = _span_rows([*profiles, w], event, epsilon)
    row = _projection_gain(base.p, V[:-1], V[-1], g, epsilon)
    return ProjectionGainReport(**{key: value.item() for key, value in row.items()})


def kl_budget(P: Dist, delta_l: ScoreFn) -> tuple[float, float]:
    """Exact KL cost of a log-deviation next to its second-order estimate.

    Returns ``(kl_value, half_var)`` with kl_value = KL(P'‖P) for
    P' ∝ P·exp(delta_l) and half_var = Var_P(delta_l)/2.  Their ratio tends
    to 1 as the deviation is scaled down; constants cost nothing (the
    normalizer absorbs them, and a constant has zero variance).
    """
    if delta_l.space != P.space:
        raise SpaceMismatch("log-deviation must live on the distribution's space")
    kl_value, half_var = _kl_budget(P.p, delta_l.f)
    return float(kl_value), float(half_var)
