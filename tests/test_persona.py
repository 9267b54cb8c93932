"""Centered log profiles and everything built on them: the first-order
weight-change linearization, the compensation inequality and its forced
counteragent bound, optimal event suppression, projection gain from an
enlarged span, and the KL cost of a small log-deviation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _gen import random_decomposition, random_dist, random_strict_weights
from logpool import (
    BudgetViolated,
    DbetaInconsistent,
    DbetaNotZeroSum,
    DegenerateSpan,
    LengthMismatch,
    LogProfile,
    NonFinite,
    OutcomeSpace,
    ParamOutOfRange,
    PreconditionViolation,
    ScoreFn,
    TiltsNotCentered,
    Weights,
    centered_profiles,
    compensation_bound,
    cov,
    dist_from_log_weights,
    event_first_order,
    expect,
    first_order_delta_l,
    indicator,
    inner_p,
    kl_budget,
    log_pool,
    make_decomposition,
    make_dist,
    norm_p,
    optimal_suppression,
    projection_gain,
    rng_from,
    single_counteragent_instance,
    tv,
    uniform,
)
from logpool.constructions import random_beta, random_probs, random_weight_change
from logpool import persona
from logpool.core import _combine
from logpool.persona import _p_orthonormal_basis, _project
from logpool.pooling import log_pool_arrays


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_centered_profiles_have_zero_mean_under_the_parent():
    rng = rng_from(701)
    for _ in range(30):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        assert len(profiles) == n
        for child, prof in zip(decomp.children, profiles):
            assert abs(expect(decomp.parent, prof.v)) <= 1e-10
            recentered = child.log_p - expect(decomp.parent, child.log_p)
            assert np.abs(prof.v - recentered).max() <= 1e-12


def test_weighted_profiles_sum_to_a_constant_direction():
    """sum_i beta_i v_i is constant across outcomes (the normalizer): the
    profiles span only re-poolable directions."""
    rng = rng_from(702)
    decomp = random_decomposition(rng, 7, 4)
    profiles = centered_profiles(decomp)
    combined = sum(
        b * p.v for b, p in zip(decomp.weights.beta, profiles)
    ) - decomp.parent.log_p * 0.0
    centered_pool = decomp.parent.log_p - expect(decomp.parent, decomp.parent.log_p)
    residual = combined - centered_pool
    assert np.abs(residual - residual.mean()).max() <= 1e-10


def test_log_profile_rejects_uncentered_vectors():
    rng = rng_from(703)
    base = random_dist(rng, OutcomeSpace(4))
    with pytest.raises(TiltsNotCentered):
        LogProfile(base, np.ones(4))


@pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0, 0.0], [np.inf, -np.inf, 0.0, 0.0]])
def test_log_profile_rejects_non_finite_vectors(v):
    """A NaN mean fails no comparison, so both vectors used to be accepted,
    and optimal_suppression then called [inf, -inf, 0, 0] a zero span."""
    base = uniform(OutcomeSpace(4))
    with pytest.raises(NonFinite):
        LogProfile(base, v)
    profiles = [LogProfile(base, [1.0, -1.0, 0.0, 0.0])]
    with pytest.raises(NonFinite):
        projection_gain(profiles, LogProfile(base, v), (2,), 0.05)


def test_profiles_require_log_pool_decompositions():
    rng = rng_from(704)
    space = OutcomeSpace(4)
    agents = [random_dist(rng, space) for _ in range(2)]
    decomp = make_decomposition(agents, Weights.uniform(2), "linear")
    with pytest.raises(PreconditionViolation):
        centered_profiles(decomp)


# ---------------------------------------------------------------------------
# First-order linearization of weight changes
# ---------------------------------------------------------------------------


def test_first_order_delta_l_predicts_the_weight_change():
    rng = rng_from(705)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        d = rng.standard_normal(n)
        d -= d.mean()
        predicted, residual_norm_fn = first_order_delta_l(profiles, d)
        manual = sum(di * p.v for di, p in zip(d, profiles))
        assert np.abs(predicted.f - manual).max() <= 1e-12
        # the residual is second order: scaling t down by 10 shrinks it ~100x
        r1 = residual_norm_fn(1e-2)
        r2 = residual_norm_fn(1e-3)
        if r1 > 1e-13:
            assert r2 <= r1 * 0.05


def test_first_order_residual_slope_is_quadratic():
    rng = rng_from(706)
    slopes = []
    for trial in range(20):
        decomp = random_decomposition(rng, 6, 3)
        profiles = centered_profiles(decomp)
        d = rng.standard_normal(3)
        d -= d.mean()
        predicted, residual_norm_fn = first_order_delta_l(profiles, d)
        if norm_p(decomp.parent, predicted.f) < 1e-8:
            continue
        ts = (1e-2, 1e-3)
        rs = [residual_norm_fn(t) for t in ts]
        if min(rs) < 1e-14:
            continue
        slopes.append(_oracles.loglog_slope(ts, rs))
    assert slopes and min(slopes) >= 1.9


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-5])
def test_first_order_residual_matches_the_mpmath_closed_form(scale):
    # the residual is the constant -log E_P[exp(t * predicted)]; at scale
    # 1e-5 it is ~1e-16 at t = 1e-3, below the rounding of log P itself
    rng = rng_from(708)
    for _ in range(10):
        decomp = random_decomposition(rng, 6, 3)
        profiles = centered_profiles(decomp)
        d = rng.standard_normal(3)
        d -= d.mean()
        predicted, residual_norm_fn = first_order_delta_l(profiles, d * scale)
        for t in (1e-2, 1e-3):
            want = abs(_oracles.mp_tilt_log_normalizer(decomp.parent.p, predicted.f, t))
            assert residual_norm_fn(t) == pytest.approx(want, rel=1e-9)


def test_residual_slope_check_passes_where_rounding_used_to_fail_it():
    """An instance whose |predicted| is 1.8e-5: its residual slope was 1.73
    when the residual was measured as a difference of two log vectors.  It
    is drawn as the persona residual check once drew instance 25 of seed
    1741860215: sizes, agents, weights, then d."""
    rng = rng_from(1741860215, 5, 0, 25, 0)
    m, n = int(rng.integers(3, 9)), int(rng.integers(2, 6))
    logs, beta = np.log(random_probs(rng, m, n)), random_beta(rng, n)
    d = rng.standard_normal(n)
    p = log_pool_arrays(logs, beta)[0]
    predicted = _combine(d - d.mean(), persona._centered(p, logs))
    assert norm_p(make_dist(OutcomeSpace(m), p), predicted) == pytest.approx(1.8e-5, rel=0.05)
    r1, r2 = persona._residual(p, predicted, 1e-2), persona._residual(p, predicted, 1e-3)
    assert _oracles.loglog_slope((1e-2, 1e-3), (r1, r2)) >= 1.9


def test_first_order_delta_l_validates_lengths():
    rng = rng_from(707)
    decomp = random_decomposition(rng, 5, 3)
    profiles = centered_profiles(decomp)
    with pytest.raises(LengthMismatch):
        first_order_delta_l(profiles, [0.1, -0.1])


# ---------------------------------------------------------------------------
# Compensation inequality
# ---------------------------------------------------------------------------


def _budget_respecting_instance(seed: int):
    """A seeded decomposition plus a small zero-sum weight change whose
    realized log-deviation fits the declared budget."""
    for attempt in range(50):
        rng = rng_from(seed, attempt)
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 6))
        decomp = random_decomposition(rng, m, n)
        d = rng.standard_normal(n)
        d -= d.mean()
        d *= 1e-3 / float(np.abs(d).max())
        h = int(d.argmax())
        if d[h] > 0 and bool((decomp.weights.beta + d > 0).all()):
            shifted = log_pool(list(decomp.children), Weights(decomp.weights.beta + d))
            realized = norm_p(decomp.parent, shifted.log_p - decomp.parent.log_p)
            return decomp, h, d, realized * 1.25 + 1e-9
    raise AssertionError("could not build a budget-respecting instance")


def test_compensation_inequality_holds_on_random_instances():
    for trial in range(40):
        decomp, h, d, eps = _budget_respecting_instance(708 + trial)
        rep = compensation_bound(decomp, h, float(d[h]), eps, d)
        assert rep.slack >= -1e-9
        assert rep.lhs >= rep.rhs - 1e-9


def test_compensation_report_inner_products_and_classes():
    decomp, h, d, eps = _budget_respecting_instance(709)
    rep = compensation_bound(decomp, h, float(d[h]), eps, d)
    profiles = centered_profiles(decomp)
    v_h = profiles[h].v
    for i, prof in enumerate(profiles):
        expected = inner_p(decomp.parent, prof.v, v_h)
        assert rep.inner_products[i] == pytest.approx(expected, abs=1e-12)
    for i in rep.anti_indices:
        assert rep.inner_products[i] < 0
    assert h in rep.aligned_indices
    assert set(rep.anti_indices).isdisjoint(rep.aligned_indices)


def test_compensation_bound_error_paths():
    decomp, h, d, eps = _budget_respecting_instance(710)
    with pytest.raises(LengthMismatch):
        compensation_bound(decomp, h, float(d[h]), eps, d[:-1])
    with pytest.raises(DbetaInconsistent):
        compensation_bound(decomp, h, float(d[h]) * 2.0, eps, d)
    with pytest.raises(DbetaInconsistent):
        compensation_bound(decomp, h, -0.5, eps, d)
    bad = d.copy()
    bad[0] += 1e-3
    with pytest.raises(DbetaNotZeroSum):
        compensation_bound(decomp, h, float(bad[h]), eps, bad)
    with pytest.raises(BudgetViolated):
        compensation_bound(decomp, h, float(d[h]), 1e-15, d)
    # an explicit budget that is not positive and finite used to give a NaN
    # (or infinite) budget, rhs and slack
    for budget in (np.nan, np.inf, 0.0):
        with pytest.raises(ParamOutOfRange, match="positive and finite"):
            compensation_bound(decomp, h, float(d[h]), budget, d)


def test_a_random_weight_change_report_re_pools_once(monkeypatch):
    """The report on a random_weight_change draw re-pools ``beta + d`` once,
    for both its budget and its bound; the draw is the one
    random_decomposition makes from the same stream, followed by d."""
    (agents, beta, d), usable = random_weight_change(rng_from(711, 0), 5, 3, 1e-3)
    rng = rng_from(711, 0)
    decomp = random_decomposition(rng, 5, 3)
    raw = rng.standard_normal(3)
    assert usable and np.array_equal(agents, [c.p for c in decomp.children])
    assert np.array_equal(beta, decomp.weights.beta)
    assert np.array_equal(d, (raw - raw.mean()) * (1e-3 / np.abs(raw - raw.mean()).max()))
    calls, pool = [], persona.log_pool_arrays

    def counted(logs, beta):
        calls.append(beta)
        return pool(logs, beta)

    monkeypatch.setattr(persona, "log_pool_arrays", counted)
    h = int(d.argmax())
    rep = compensation_bound(decomp, h, float(d[h]), None, d)
    assert len(calls) == 1 and np.array_equal(calls[0], decomp.weights.beta + d)
    assert rep.budget == rep.delta_l_norm * 1.25 + 1e-9 and rep.slack >= -1e-9


@pytest.mark.parametrize("scale", [1e-3, 0.3, 0.9])
def test_random_weight_change_stacks_and_flags_unusable_rows(scale):
    """A batch of changes is its draws made in turn, each as a batch, from the
    same stream; a change is usable when its largest entry is positive and
    every weight stays positive."""
    (agents, beta, d), usable = random_weight_change(rng_from(712), 4, 3, scale, (40,))
    copy = rng_from(712)
    assert np.array_equal(agents, random_probs(copy, 4, 3, (40,)))
    assert np.array_equal(beta, random_beta(copy, 3, (40,)))
    raw = copy.standard_normal((40, 3))
    for b in range(40):
        centered = raw[b] - raw[b].mean()
        assert np.array_equal(d[b], centered * (scale / np.abs(centered).max()))
        assert abs(d[b].sum()) <= 1e-12 and np.abs(d[b]).max() == pytest.approx(scale, rel=1e-15)
        assert usable[b] == ((beta[b] + d[b] > 0).all() and d[b].max() > 0)
    assert usable.all() if scale == 1e-3 else not usable.all()


def test_engineered_counteragent_forces_the_weight_up():
    delta, eps = 0.02, 0.005
    decomp, h, dbeta = single_counteragent_instance(delta)
    rep = compensation_bound(decomp, h, delta, eps, dbeta)
    assert rep.single_anti_aligned
    assert rep.counter_index == 1
    assert rep.aligned_not_downgraded
    assert rep.counter_lower_bound is not None and rep.counter_lower_bound > 0.0
    # the deliberate increase written into dbeta meets the forced bound
    assert dbeta[rep.counter_index] >= rep.counter_lower_bound - 1e-12
    # and the bound is valid whenever the budget is under delta * scale
    assert eps + rep.residual_norm < delta * rep.target_norm


def test_engineered_counteragent_bound_grows_with_delta():
    bounds = []
    for delta in (0.01, 0.02, 0.04):
        decomp, h, dbeta = single_counteragent_instance(delta)
        rep = compensation_bound(decomp, h, delta, 0.001, dbeta)
        assert rep.counter_lower_bound is not None
        bounds.append(rep.counter_lower_bound)
    assert bounds[0] < bounds[1] < bounds[2]


# ---------------------------------------------------------------------------
# Event first-order calculus
# ---------------------------------------------------------------------------


def test_event_first_order_linearization_shrinks_quadratically():
    rng = rng_from(711)
    for _ in range(20):
        m = int(rng.integers(3, 9))
        space = OutcomeSpace(m)
        p = random_dist(rng, space)
        k = int(rng.integers(1, m - 1))
        event = tuple(int(x) for x in rng.choice(m, size=k, replace=False))
        direction = rng.standard_normal(m)
        errs = []
        for scale in (1e-2, 1e-3):
            delta_l = ScoreFn(space, scale * direction)
            exact, linear = event_first_order(p, event, delta_l)
            errs.append(abs(exact - linear))
        if min(errs) < 1e-16:
            continue
        assert errs[1] <= errs[0] * 0.05


def test_event_first_order_linear_term_is_the_centered_inner_product():
    rng = rng_from(712)
    space = OutcomeSpace(5)
    p = random_dist(rng, space)
    event = (1, 3)
    delta_l = ScoreFn(space, 0.01 * rng.standard_normal(5))
    _, linear = event_first_order(p, event, delta_l)
    g = indicator(space, event).f
    g_centered = g - expect(p, g)
    assert linear == pytest.approx(inner_p(p, delta_l.f, g_centered), abs=1e-14)


# ---------------------------------------------------------------------------
# Optimal suppression
# ---------------------------------------------------------------------------


def test_optimal_suppression_achieves_budget_times_projection():
    rng = rng_from(713)
    for _ in range(20):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        k = int(rng.integers(1, m - 1))
        event = tuple(int(x) for x in rng.choice(m, size=k, replace=False))
        eps = 0.02
        plan = optimal_suppression(profiles, event, eps)
        assert plan.achieved == pytest.approx(eps * plan.projection_norm, abs=1e-9)
        assert norm_p(decomp.parent, plan.delta_l.f) <= eps * (1 + 1e-9)
        # the plan's linearized reduction equals the achieved value
        _, linear = event_first_order(decomp.parent, event, plan.delta_l)
        assert -linear == pytest.approx(plan.achieved, abs=1e-10)


def test_optimal_suppression_beats_random_directions_in_the_span():
    rng = rng_from(714)
    decomp = random_decomposition(rng, 7, 4)
    profiles = centered_profiles(decomp)
    event = (0, 2)
    eps = 0.01
    plan = optimal_suppression(profiles, event, eps)
    base = decomp.parent
    V = np.stack([p.v for p in profiles])
    coeffs = rng.standard_normal((2000, len(profiles)))
    candidates = coeffs @ V
    norms = np.sqrt((candidates**2 * base.p).sum(axis=1))
    keep = norms > 1e-12
    candidates = candidates[keep] * (eps / norms[keep])[:, None]
    g = indicator(base.space, event).f
    g_centered = g - expect(base, g)
    reductions = -(candidates * g_centered * base.p).sum(axis=1)
    assert float(reductions.max()) <= plan.achieved + 1e-9


def test_optimal_suppression_is_linear_in_the_budget():
    rng = rng_from(715)
    decomp = random_decomposition(rng, 6, 3)
    profiles = centered_profiles(decomp)
    event = (1,)
    values = []
    budgets = (0.01, 0.02, 0.04, 0.08)
    for eps in budgets:
        values.append(optimal_suppression(profiles, event, eps).achieved)
    ratios = [v / e for v, e in zip(values, budgets)]
    assert max(ratios) - min(ratios) <= 1e-9


def test_optimal_suppression_zero_projection_flag():
    """An event direction orthogonal to every profile: nothing can be done."""
    space = OutcomeSpace(4)
    base = uniform(space)
    # profiles supported on {0,1} minus their mean; event {2,3} direction is
    # orthogonal to them in the uniform inner product
    v1 = np.array([1.0, -1.0, 0.0, 0.0])
    v2 = np.array([2.0, -2.0, 0.0, 0.0])
    profiles = [LogProfile(base, v1), LogProfile(base, v2)]
    plan = optimal_suppression(profiles, (2, 3), 0.05)
    assert plan.zero_projection
    assert plan.achieved == 0.0
    assert norm_p(base, plan.delta_l.f) == 0.0


def test_optimal_suppression_degenerate_span():
    """Uniform children carry zero profiles: there is no span at all."""
    space = OutcomeSpace(4)
    u = uniform(space)
    decomp = make_decomposition([u, u], Weights.uniform(2), "log")
    profiles = centered_profiles(decomp)
    for prof in profiles:
        assert np.abs(prof.v).max() <= 1e-12
    with pytest.raises(DegenerateSpan):
        optimal_suppression(profiles, (1,), 0.05)


def test_optimal_suppression_validation():
    rng = rng_from(717)
    decomp = random_decomposition(rng, 5, 3)
    profiles = centered_profiles(decomp)
    with pytest.raises(ParamOutOfRange):
        optimal_suppression(profiles, (1,), 0.0)


@pytest.mark.parametrize("budget", [np.inf, np.nan])
def test_a_budget_that_is_not_finite_is_rejected(budget):
    """An infinite budget used to give a NonFinite plan from
    optimal_suppression and a NaN (or, with w in the span, a zero) gain from
    projection_gain."""
    profiles = centered_profiles(random_decomposition(rng_from(719), 5, 3))
    with pytest.raises(ParamOutOfRange, match="finite"):
        optimal_suppression(profiles, (1,), budget)
    for w in (profiles[1], LogProfile(profiles[0].base, -profiles[0].v)):
        with pytest.raises(ParamOutOfRange, match="finite"):
            projection_gain(profiles[:1], w, (1,), budget)


# ---------------------------------------------------------------------------
# Span basis
# ---------------------------------------------------------------------------


def _centered(base, rows: np.ndarray) -> np.ndarray:
    return rows - (base.p * rows).sum(axis=-1, keepdims=True)


def _span_cases():
    """(base, rows, dimension): centered stacks of known rank r (A @ B),
    one row repeated, and rows scaled down to 1e-13."""
    rng = rng_from(731)
    for _ in range(40):
        m = int(rng.integers(3, 10))
        r = int(rng.integers(1, m))
        n = int(rng.integers(r, r + 4))
        base = random_dist(rng, OutcomeSpace(m))
        rows = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        yield base, _centered(base, rows), r
        yield base, np.repeat(_centered(base, rng.standard_normal((1, m))), n, axis=0), 1
        tiny = _centered(base, rng.standard_normal((n, m)))
        yield base, 1e-13 * tiny / np.abs(tiny).max(), 0


def test_span_basis_is_orthonormal_spans_its_rows_and_has_their_rank():
    """A basis keeps its rank's leading rows; the dropped rows are zero."""
    for base, rows, dim in _span_cases():
        basis, rank = _p_orthonormal_basis(base.p, rows)
        assert rank == dim and basis.shape == (min(rows.shape), rows.shape[-1])
        assert basis.flags.c_contiguous and not basis[dim:].any()
        gram = (base.p * basis[:dim]) @ basis[:dim].T
        assert np.abs(gram - np.eye(dim)).max(initial=0.0) <= 1e-12
        if dim:
            for row in rows:
                residual = row - _project(base.p, basis, row)
                assert norm_p(base, residual) <= 1e-10 * norm_p(base, row)


# ---------------------------------------------------------------------------
# Projection gain
# ---------------------------------------------------------------------------


def test_projection_gain_pythagoras_identity():
    rng = rng_from(718)
    for _ in range(30):
        m = int(rng.integers(4, 10))
        n = int(rng.integers(2, 4))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        w_vec = rng.standard_normal(m)
        w_vec -= expect(decomp.parent, w_vec)
        w = LogProfile(decomp.parent, w_vec)
        k = int(rng.integers(1, m - 1))
        event = tuple(int(x) for x in rng.choice(m, size=k, replace=False))
        rep = projection_gain(profiles, w, event, 0.02)
        assert rep.sq_enlarged_pythagoras == pytest.approx(
            rep.sq_base + rep.correlation**2, abs=1e-12
        )
        assert abs(rep.sq_enlarged_direct - rep.sq_enlarged_pythagoras) <= 1e-10
        assert rep.gain >= -1e-12
        assert rep.enlarged_value >= rep.base_value - 1e-12


def test_projection_gain_zero_when_w_already_in_span():
    rng = rng_from(719)
    decomp = random_decomposition(rng, 6, 3)
    profiles = centered_profiles(decomp)
    rep = projection_gain(profiles, profiles[0], (1, 2), 0.02)
    assert rep.w_in_span
    assert rep.gain == 0.0


@pytest.mark.parametrize("size", [1e-5, 1e-6, 1e-8])
def test_projection_gain_never_negative_when_w_adds_no_numerical_rank(size):
    """A w that leaves span{profiles} by ``size`` (far above
    SPAN_MEMBERSHIP_TOL) in a direction the SVD rank test drops: the
    enlarged span is the old one, not a truncated basis of it, and the gain
    is zero, never negative.  Such rows made the verify check fail at seeds 778 and
    977, with gains of -7e-8 and -7e-7."""
    rng = rng_from(720)
    decomp = random_decomposition(rng, 5, 3)
    profiles = centered_profiles(decomp)
    p, V = decomp.parent.p, np.stack([prof.v for prof in profiles])
    basis, dim = _p_orthonormal_basis(p, V)
    out = rng.standard_normal(5)
    out -= (p * out).sum() + _project(p, basis, out - (p * out).sum())
    w = V.sum(axis=0) + size * out / norm_p(decomp.parent, out)
    rep = projection_gain(profiles, LogProfile(decomp.parent, w), (0, 3), 0.05)
    assert dim == rep.base_dim == rep.enlarged_dim == 3
    assert rep.u_norm == pytest.approx(size) and rep.w_in_span and rep.gain == 0.0


def test_projection_gain_strictly_positive_when_new_direction_correlates():
    """Start from a span orthogonal to the event direction, then enlarge with
    the event direction itself: all the gain appears."""
    space = OutcomeSpace(4)
    base = uniform(space)
    v1 = np.array([1.0, -1.0, 0.0, 0.0])
    profiles = [LogProfile(base, v1)]
    g = indicator(space, (2,)).f
    g_centered = g - expect(base, g)
    w = LogProfile(base, g_centered)
    rep = projection_gain(profiles, w, (2,), 0.05)
    assert not rep.w_in_span
    assert rep.gain > 0.0
    assert abs(rep.correlation) > 0.0
    # the closed-form value-scale gain for an orthogonal new direction
    assert rep.closed_form_gain == pytest.approx(
        0.05 * abs(rep.correlation), abs=1e-12
    )


def test_projection_gain_dimensions():
    rng = rng_from(720)
    decomp = random_decomposition(rng, 6, 3)
    profiles = centered_profiles(decomp)
    w_vec = rng.standard_normal(6)
    w_vec -= expect(decomp.parent, w_vec)
    rep = projection_gain(profiles, LogProfile(decomp.parent, w_vec), (0,), 0.01)
    assert rep.enlarged_dim in (rep.base_dim, rep.base_dim + 1)
    if not rep.w_in_span:
        assert rep.enlarged_dim == rep.base_dim + 1


# ---------------------------------------------------------------------------
# KL budget
# ---------------------------------------------------------------------------


def test_kl_budget_ratio_near_one_for_small_deviations():
    rng = rng_from(721)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        space = OutcomeSpace(m)
        p = random_dist(rng, space)
        direction = rng.standard_normal(m)
        direction -= expect(p, direction)
        nrm = norm_p(p, direction)
        if nrm < 1e-12:
            continue
        delta_l = ScoreFn(space, direction * (0.01 / nrm))
        kl_value, half_var = kl_budget(p, delta_l)
        assert 0.9 <= kl_value / half_var <= 1.1


def test_kl_budget_converges_to_one_under_scaling():
    rng = rng_from(722)
    space = OutcomeSpace(6)
    p = random_dist(rng, space)
    direction = rng.standard_normal(6)
    direction -= expect(p, direction)
    direction /= norm_p(p, direction)
    errs = []
    for scale in (1e-1, 1e-2, 1e-3):
        kl_value, half_var = kl_budget(p, ScoreFn(space, scale * direction))
        errs.append(abs(kl_value / half_var - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3


def test_kl_budget_constants_cost_nothing():
    rng = rng_from(723)
    space = OutcomeSpace(5)
    p = random_dist(rng, space)
    kl_value, half_var = kl_budget(p, ScoreFn(space, 3.0 * np.ones(5)))
    assert kl_value == pytest.approx(0.0, abs=1e-14)
    assert half_var == pytest.approx(0.0, abs=1e-14)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_kl_budget_exact_value_is_true_kl(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    space = OutcomeSpace(m)
    p = random_dist(rng, space)
    delta_l = ScoreFn(space, 0.5 * rng.standard_normal(m))
    kl_value, _ = kl_budget(p, delta_l)
    shifted = dist_from_log_weights(space, p.log_p + delta_l.f)
    assert kl_value == pytest.approx(
        _oracles.mp_kl(shifted.p, p.p), abs=1e-12
    )
