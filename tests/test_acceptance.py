"""Release-gate sweep: one test per top-level verification criterion.

Every count, grid, and tolerance in this module is load-bearing — the
per-module suites probe corners and error paths, while this file checks
each headline property at its full advertised scale.  Tests are numbered
so a verbose run reads as the acceptance checklist.
"""

import functools

import numpy as np

from logpool import (
    EPSILON_GRID,
    LogProfile,
    OutcomeSpace,
    ScoreFn,
    Weights,
    analytic_unanimity_instance,
    binary_gap_closed_form,
    centered_profiles,
    certify_openness,
    compensation_bound,
    entropy,
    find_epsilon_for_unanimity,
    first_order_delta_l,
    kl,
    kl_budget,
    linear_pool,
    local_unanimity_audit,
    log_pool,
    make_decomposition,
    make_dist,
    norm_p,
    optimal_suppression,
    parent_benefit_sweep,
    peaked_incompatible_family,
    projection_gain,
    single_counteragent_instance,
    split_invariance_check,
    tilt_gap_fd,
    transport,
    tv,
    unanimity_report,
    uniform,
    welfare_gap,
)

from _gen import (
    random_decomposition,
    random_dist,
    random_family,
    random_strict_weights,
    seeded,
    transported,
)
from _oracles import loglog_slope, mp_linear_pool, mp_log_pool, tv_against
from _subproc import run_logpool


def test_01_pools_match_extended_precision_oracles():
    """1,000 seeded instances (m <= 10, n <= 5): both pools within 1e-12 tv."""
    rng = seeded(101)
    worst_log = 0.0
    worst_linear = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        children, weights = random_family(rng, m, n)
        ps = [c.p for c in children]
        pooled = log_pool(children, weights)
        worst_log = max(worst_log, tv_against(pooled.p, mp_log_pool(ps, weights.beta)))
        mixed = linear_pool(children, weights)
        worst_linear = max(
            worst_linear, tv_against(mixed.p, mp_linear_pool(ps, weights.beta))
        )
    assert worst_log <= 1e-12
    assert worst_linear <= 1e-12


def test_02_welfare_gap_entropy_kl_identity():
    """Direct gap equals H(agent) - H(pool) - KL(pool||agent) within 1e-9."""
    rng = seeded(102)
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        space = OutcomeSpace(m)
        agent = random_dist(rng, space)
        pooled = random_dist(rng, space)
        direct = welfare_gap(agent, pooled)
        recomposed = entropy(agent) - entropy(pooled) - kl(pooled, agent)
        assert abs(direct - recomposed) <= 1e-9


def test_03_binary_census_no_mutual_gain_and_closed_form():
    """50x50x9 grid of (x1, x2, beta1), x1 != x2: never both gaps > +1e-9,
    and the closed form (x - x_i) log(x_i / (1 - x_i)) matches to 1e-10."""
    space = OutcomeSpace(2)
    xs = np.linspace(0.02, 0.98, 50)
    dists = [make_dist(space, np.array([x, 1.0 - x])) for x in xs]
    betas = np.linspace(0.1, 0.9, 9)
    both_gain = 0
    worst_closed = 0.0
    for i, x1 in enumerate(xs):
        for j, x2 in enumerate(xs):
            if i == j:
                continue
            for b1 in betas:
                weights = Weights(np.array([b1, 1.0 - b1]))
                pooled = log_pool([dists[i], dists[j]], weights)
                g1 = welfare_gap(dists[i], pooled)
                g2 = welfare_gap(dists[j], pooled)
                if g1 > 1e-9 and g2 > 1e-9:
                    both_gain += 1
                x = float(pooled.p[0])
                worst_closed = max(
                    worst_closed,
                    abs(g1 - binary_gap_closed_form(x1, x)),
                    abs(g2 - binary_gap_closed_form(x2, x)),
                )
    assert both_gain == 0
    assert worst_closed <= 1e-10


def _skewed_weights(n: int) -> list[Weights]:
    up = np.linspace(1.0, 2.0, n)
    down = np.linspace(3.0, 1.0, n)
    return [Weights(up / up.sum()), Weights(down / down.sum())]


@functools.cache
def _unanimous_instances():
    """One strictly unanimous instance per (n, weight-shape) combination."""
    out = []
    for n in (2, 3, 5):
        for weights in [Weights.uniform(n), *_skewed_weights(n)]:
            eps = find_epsilon_for_unanimity(n, weights)
            out.append((n, eps, analytic_unanimity_instance(n, eps, weights)))
    return out


def test_04_strictly_unanimous_instances_exist():
    """n in {2, 3, 5} x {uniform, two skews}: threshold search succeeds and
    every welfare gap exceeds 1e-9."""
    instances = _unanimous_instances()
    assert len(instances) == 9
    for _n, eps, decomp in instances:
        assert 0.0 < eps < 0.25
        report = unanimity_report(decomp)
        assert report.strictly_unanimous
        assert float(np.min(report.gaps)) > 1e-9


def test_05_linear_pools_lose_on_weighted_average():
    """500 mixtures of non-identical children: weighted gap sum < -1e-12."""
    rng = seeded(105)
    for _ in range(500):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 7))
        decomp = random_decomposition(rng, m, n, kind="linear")
        spread = max(tv(decomp.children[0], c) for c in decomp.children[1:])
        assert spread > 1e-9  # children really are non-identical
        assert decomp.weights.beta @ unanimity_report(decomp).gaps < -1e-12


def test_06_split_invariance_and_clone_gap_preservation():
    """500 (decomposition, split) pairs re-pool within 1e-10 tv; splitting a
    child into two clones leaves every gap unchanged within 1e-10."""
    rng = seeded(106)
    for _ in range(500):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n, kind="log")
        idx = int(rng.integers(n))
        alpha = float(rng.uniform(0.05, 0.95))
        g = ScoreFn(decomp.parent.space, rng.normal(0.0, 1.0, m))
        _, _, moved = split_invariance_check(decomp, idx, alpha, g)
        assert moved <= 1e-10

        before = unanimity_report(decomp).gaps
        zero = ScoreFn.zero(decomp.parent.space)
        first, second, moved0 = split_invariance_check(decomp, idx, alpha, zero)
        assert moved0 <= 1e-10
        children = list(decomp.children)
        beta = list(decomp.weights.beta)
        b = beta[idx]
        children[idx : idx + 1] = [first, second]
        beta[idx : idx + 1] = [alpha * b, (1.0 - alpha) * b]
        refined = make_decomposition(children, Weights(np.array(beta)), "log")
        after = unanimity_report(refined).gaps
        expected = np.concatenate([before[: idx + 1], before[idx:]])
        assert float(np.max(np.abs(after - expected))) <= 1e-10


def test_07_parent_benefit_does_not_pass_to_subagents():
    """P1 = (0.5, 0.3, 0.2), sharpness 2: some depression strength leaves the
    benefiting child's gap positive while its subagent's gap goes negative."""
    p1 = make_dist(OutcomeSpace(3), np.array([0.5, 0.3, 0.2]))
    sweep = parent_benefit_sweep(p1, t=2.0, alpha=0.5, o_star=0)
    assert sweep.parent_gap > 0.0
    assert sweep.first_losing_lambda is not None
    losing_gap = dict(sweep.rows)[sweep.first_losing_lambda]
    assert losing_gap < 0.0


def test_08_transport_is_exact_and_identity_at_base():
    """500 (decomposition, target) pairs: the transported children pool to
    the target within 1e-12 (a certified decomposition of it) and within 1e-10
    by an independent re-pool, and target = base returns children bit-equal."""
    rng = seeded(108)
    for _ in range(500):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n)
        target = random_dist(rng, decomp.parent.space)
        moved = transported(decomp, target)
        assert tv(log_pool(list(moved.children), moved.weights), target) <= 1e-10
        for child in decomp.children:
            same = transport(child, decomp.parent, decomp.parent)
            assert np.array_equal(same.p, child.p)


def test_09_openness_certifies_positive_radius():
    """Every strictly unanimous instance from the existence sweep admits a
    positive certified tv radius with positive boundary gaps."""
    for _n, _eps, decomp in _unanimous_instances():
        cert = certify_openness(decomp, samples=32, seed=902)
        assert cert.radius > 0.0
        assert cert.min_gap_at_boundary > 0.0


def test_10_balanced_tilts_cannot_lift_all_gaps():
    """500 balanced-tilt instances: weighted derivative sum within 1e-8 of
    zero, each analytic derivative matching finite differences to 1e-6
    relative."""
    rng = seeded(110)
    for _ in range(500):
        m = int(rng.integers(3, 11))
        n = int(rng.integers(2, 6))
        space = OutcomeSpace(m)
        pooled = random_dist(rng, space)
        weights = random_strict_weights(rng, n)
        for _attempt in range(50):
            head = [rng.normal(0.0, 1.0, m) for _ in range(n - 1)]
            tail = -sum(b * h for b, h in zip(weights.beta, head)) / weights.beta[-1]
            tilts = [ScoreFn(space, h) for h in (*head, tail)]
            derivatives, weighted = local_unanimity_audit(pooled, tilts, weights)
            if float(np.min(np.abs(derivatives))) >= 3e-3:
                break
        assert abs(weighted) <= 1e-8
        for tilt, analytic in zip(tilts, derivatives):
            fd = tilt_gap_fd(pooled, tilt)
            assert abs(fd - analytic) <= 1e-6 * abs(analytic)


def test_11_uniform_pool_offers_no_gain():
    """500 agents: the gap against the uniform pool is <= 0 and equals
    -(KL(R||U) + KL(U||R)) within 1e-10."""
    rng = seeded(111)
    for _ in range(500):
        m = int(rng.integers(2, 16))
        agent = random_dist(rng, OutcomeSpace(m))
        flat = uniform(agent.space)
        gap = welfare_gap(agent, flat)
        assert gap <= 0.0
        assert abs(gap + kl(agent, flat) + kl(flat, agent)) <= 1e-10


def test_12_no_weight_vector_survives_peaked_sharpening():
    """Peaked families at n in {2, 4}: for each of 200 sampled strict weight
    vectors, the weighted gap sum is negative at the discovered threshold and
    stays negative all the way down the grid."""
    rng = seeded(112)
    grid = [eps for eps in EPSILON_GRID if eps < 0.5]
    for n in (2, 4):
        families = {eps: peaked_incompatible_family(n, eps) for eps in grid}
        for _ in range(100):
            weights = random_strict_weights(rng, n)
            sums = [
                weights.beta
                @ unanimity_report(make_decomposition(families[eps], weights, "log")).gaps
                for eps in grid
            ]
            first_negative = next(i for i, s in enumerate(sums) if s < 0.0)
            assert all(s < 0.0 for s in sums[first_negative:])


def test_13_linearization_residual_is_second_order():
    """100 instances: the residual of the first-order log-deviation shrinks
    with log-log slope >= 1.9 under scaling."""
    rng = seeded(113)
    ts = np.array([0.1, 0.05, 0.025, 0.0125])
    for _ in range(100):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        dbeta = rng.normal(0.0, 1.0, n)
        dbeta -= dbeta.mean()
        dbeta *= 0.2 / np.max(np.abs(dbeta))
        _, residual_norm_fn = first_order_delta_l(profiles, dbeta)
        residuals = np.array([residual_norm_fn(float(t)) for t in ts])
        assert np.all(residuals > 0.0)
        assert loglog_slope(ts, residuals) >= 1.9


def _budget_respecting_instance(rng):
    """A decomposition plus a zero-sum weight change whose realized
    log-deviation fits inside the declared budget."""
    m = int(rng.integers(3, 11))
    n = int(rng.integers(2, 6))
    decomp = random_decomposition(rng, m, n)
    dbeta = rng.normal(0.0, 1.0, n)
    dbeta -= dbeta.mean()
    dbeta *= 1e-3 / np.max(np.abs(dbeta))
    h_index = int(np.argmax(np.abs(dbeta)))
    if dbeta[h_index] < 0.0:
        dbeta = -dbeta
    delta = float(dbeta[h_index])
    shifted = log_pool(decomp.children, Weights(decomp.weights.beta + dbeta))
    realized = norm_p(decomp.parent, shifted.log_p - decomp.parent.log_p)
    budget = realized * 1.25 + 1e-9
    return decomp, h_index, delta, dbeta, budget


def test_14_compensation_inequality_and_counteragent_bound():
    """200 budget-respecting weight changes keep the inequality slack above
    -1e-9; the engineered single-counteragent instance with
    budget + residual < delta * target norm yields a strictly positive lower
    bound on the counteracting weight increase."""
    rng = seeded(114)
    for _ in range(200):
        decomp, h_index, delta, dbeta, budget = _budget_respecting_instance(rng)
        report = compensation_bound(decomp, h_index, delta, budget, dbeta)
        assert report.slack >= -1e-9

    decomp, h_index, dbeta = single_counteragent_instance(delta=0.02)
    report = compensation_bound(decomp, h_index, 0.02, 0.005, dbeta)
    assert report.single_anti_aligned
    assert report.aligned_not_downgraded
    assert report.budget + report.residual_norm < report.delta * report.target_norm
    assert report.counter_lower_bound is not None
    assert report.counter_lower_bound > 0.0
    assert dbeta[report.counter_index] >= report.counter_lower_bound - 1e-12


def test_15_suppression_is_optimal_and_linear_in_budget():
    """100 instances: 10,000 random in-span directions never beat the plan by
    more than 1e-9, and the achieved reduction is linear across a budget
    grid."""
    rng = seeded(115)
    budgets = np.linspace(0.01, 0.1, 5)
    for _ in range(100):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, 6))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        base = decomp.parent
        k = int(rng.integers(1, m))
        event = [int(i) for i in rng.choice(m, size=k, replace=False)]
        epsilon = 0.05
        plan = optimal_suppression(profiles, event, epsilon)

        indicator_centered = np.zeros(m)
        indicator_centered[event] = 1.0
        indicator_centered -= base.prob_of(event)
        coefficients = rng.normal(0.0, 1.0, (10_000, n))
        directions = coefficients @ np.stack([prof.v for prof in profiles])
        norms = np.sqrt(np.maximum((directions**2 * base.p).sum(axis=1), 1e-300))
        inner = directions @ (base.p * indicator_centered)
        reductions = epsilon * np.abs(inner) / norms
        assert float(reductions.max()) <= plan.achieved + 1e-9

        achieved = np.array(
            [optimal_suppression(profiles, event, float(b)).achieved for b in budgets]
        )
        ratios = achieved / budgets
        assert float(ratios.max() - ratios.min()) <= 1e-9


def test_16_projection_gain_pythagoras_and_span_membership():
    """500 instances: the squared-norm Pythagoras identity holds to 1e-10;
    gain is exactly 0 for in-span directions and strictly positive whenever
    the new direction correlates with the event."""
    rng = seeded(116)
    strictly_positive = 0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 2, 13))
        decomp = random_decomposition(rng, m, n)
        profiles = centered_profiles(decomp)
        base = decomp.parent
        k = int(rng.integers(1, m))
        event = [int(i) for i in rng.choice(m, size=k, replace=False)]

        raw = rng.normal(0.0, 1.0, m)
        fresh = LogProfile(base, raw - float(base.p @ raw))
        report = projection_gain(profiles, fresh, event, 0.03)
        assert abs(report.sq_enlarged_direct - report.sq_enlarged_pythagoras) <= 1e-10
        if not report.w_in_span and abs(report.correlation) > 1e-8:
            assert report.gain > 0.0
            strictly_positive += 1

        mix = rng.normal(0.0, 1.0, n) @ np.stack([prof.v for prof in profiles])
        inside = projection_gain(profiles, LogProfile(base, mix), event, 0.03)
        assert inside.w_in_span
        assert inside.gain == 0.0
    assert strictly_positive >= 400


def test_17_kl_budget_matches_half_variance():
    """500 log-deviations with norm <= 0.01: KL over half-variance lies in
    [0.9, 1.1], and the ratio converges toward 1 as the deviation is scaled
    down."""
    rng = seeded(117)
    for trial in range(500):
        m = int(rng.integers(2, 51))
        base = random_dist(rng, OutcomeSpace(m))
        raw = rng.normal(0.0, 1.0, m)
        centered = raw - float(base.p @ raw)
        size = 0.01 * float(rng.uniform(0.2, 1.0))
        delta_l = centered * (size / norm_p(base, centered))
        kl_value, half_var = kl_budget(base, ScoreFn(base.space, delta_l))
        assert 0.9 <= kl_value / half_var <= 1.1
        if trial < 50:
            errors = []
            for s in (1.0, 0.5, 0.25, 0.125):
                kv, hv = kl_budget(base, ScoreFn(base.space, delta_l * s))
                errors.append(abs(kv / hv - 1.0))
            assert errors[-1] <= errors[0]
            assert errors[-1] < 1e-3


def test_18_verification_reports_are_byte_identical(tmp_path):
    """Running the full verification suite twice at one seed writes two
    byte-identical reports."""
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = run_logpool("verify", "all", "--seed", "42", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
