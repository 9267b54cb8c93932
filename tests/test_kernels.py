"""The stacked factorization, split, tilt and persona kernels against the
object API: every row of a kernel call equals the one-instance public call bit
for bit, retries and errors included."""

import numpy as np
import pytest

from logpool import (
    Dist,
    DistinctnessFailure,
    LogProfile,
    OutcomeSpace,
    ScoreFn,
    TiltsNotCentered,
    Weights,
    centered_profiles,
    compensation_bound,
    event_first_order,
    factor_pairwise_distinct,
    factor_with_fixed,
    first_order_delta_l,
    kl_budget,
    local_unanimity_audit,
    make_decomposition,
    optimal_suppression,
    projection_gain,
    rng_from,
    split_invariance_check,
    tilt_gap_derivative,
    tilt_gap_fd,
)
from logpool import factorize, persona, stability
from logpool.constructions import random_beta, random_event, random_probs, random_weight_change

B, M, N = 12, 5, 4
SPACE = OutcomeSpace(M)


def _group(seed: int, n: int = N):
    """B parents (B, M) and B strict weight vectors (B, n)."""
    rng = rng_from(seed)
    return random_probs(rng, M, B), np.stack([random_beta(rng, n) for _ in range(B)])


def _rows(decomp) -> np.ndarray:
    return np.stack([c.p for c in decomp.children])


@pytest.mark.parametrize("floor,retries", [(factorize.DISTINCTNESS_TV, False), (0.025, True)])
def test_distinct_children_rows_are_the_public_factorizations(monkeypatch, floor, retries):
    """At the raised floor some rows of the group redraw (some past attempt
    1) and others keep their attempt-0 draws."""
    monkeypatch.setattr(factorize, "DISTINCTNESS_TV", floor)
    calls = []
    parents, betas = _group(701)
    seeds = list(range(100, 100 + B))

    def redraw(r, attempt):
        calls.append((seeds[r], attempt))
        return rng_from(seeds[r], attempt)

    draws = np.stack([rng_from(s, 0).standard_normal((N - 1, M)) for s in seeds])
    children = factorize._distinct_children(parents, betas, 0, redraw, draws)
    retried = {seed for seed, _ in calls}
    if retries:
        assert 0 < len(retried) < B and max(a for _, a in calls) > 1
    else:
        assert calls == []
    for b, seed in enumerate(seeds):
        decomp = factor_pairwise_distinct(Dist(SPACE, parents[b]), Weights(betas[b]), seed)
        assert np.array_equal(children[b], _rows(decomp)), b


def test_a_row_that_never_separates_fails_as_the_public_call(monkeypatch):
    monkeypatch.setattr(factorize, "DISTINCTNESS_TV", 1.0)  # no two rows are 1 apart
    parents, betas = _group(702)
    draws = np.stack([rng_from(s, 0).standard_normal((N - 1, M)) for s in range(B)])
    with pytest.raises(DistinctnessFailure) as batched:
        factorize._distinct_children(parents, betas, 0, lambda r, a: rng_from(r, a), draws)
    with pytest.raises(DistinctnessFailure) as single:
        factor_pairwise_distinct(Dist(SPACE, parents[0]), Weights(betas[0]), 0)
    assert str(batched.value) == str(single.value)


def test_balanced_children_rows_are_the_fixed_factorizations():
    n, k = 5, 2
    parents, betas = _group(703, n)
    fixed = random_probs(rng_from(704), M, B * k).reshape(B, k, M)
    draws = np.stack([rng_from(s, 0).standard_normal((n - k - 1, M)) for s in range(B)])
    children = factorize._balanced_children(parents, betas, fixed, k, draws)
    for b in range(B):
        given = [Dist(SPACE, f) for f in fixed[b]]
        decomp = factor_with_fixed(Dist(SPACE, parents[b]), given, Weights(betas[b]), b)
        assert np.array_equal(children[b], _rows(decomp)), b


def test_split_rows_are_the_public_split_checks():
    rng = rng_from(705)
    agents = random_probs(rng, M, B * N).reshape(B, N, M)
    betas = np.stack([random_beta(rng, N) for _ in range(B)])
    idx, alpha = rng.integers(0, N, B), rng.uniform(0.1, 0.9, B)
    g = rng.standard_normal((B, M))
    decomps = [
        make_decomposition([Dist(SPACE, a) for a in agents[b]], Weights(betas[b])) for b in range(B)
    ]
    parents = np.stack([d.parent.p for d in decomps])
    pieces = factorize._split_pieces(np.log(agents[np.arange(B), idx]), alpha, g)
    deltas = factorize._split_repool(parents, agents, betas, idx, alpha, pieces)
    for b, decomp in enumerate(decomps):
        g_b = ScoreFn(SPACE, g[b])
        first, second, delta = split_invariance_check(decomp, idx[b], alpha[b], g_b)
        assert np.array_equal(pieces[b], np.stack([first.p, second.p])), b
        assert deltas[b] == delta, b


def test_tilt_kernel_rows_are_the_public_tilt_derivatives():
    rng = rng_from(706)
    p, h = random_probs(rng, M, B), rng.standard_normal((B, M))
    fd, analytic = stability._gap_fd(p, h), stability._gap_derivatives(p, h)
    for b in range(B):
        P, H = Dist(SPACE, p[b]), ScoreFn(SPACE, h[b])
        assert fd[b] == tilt_gap_fd(P, H), b
        assert analytic[b] == tilt_gap_derivative(P, H), b


def test_audit_rows_are_the_public_audits_and_name_an_unbalanced_row():
    parents, betas = _group(707)
    free = rng_from(708).standard_normal((B, N - 1, M))
    closing = -np.einsum("bi,bim->bm", betas[:, :-1], free) / betas[:, -1:]
    tilts = np.concatenate([free, closing[:, None]], axis=1)
    derivatives, weighted = stability._audit(parents, tilts, betas)
    for b in range(B):
        hs = [ScoreFn(SPACE, t) for t in tilts[b]]
        d, w = local_unanimity_audit(Dist(SPACE, parents[b]), hs, Weights(betas[b]))
        assert np.array_equal(derivatives[b], d) and weighted[b] == w, b
    tilts[3, 0] += 1.0
    with pytest.raises(TiltsNotCentered, match="in row 3"):
        stability._audit(parents, tilts, betas)


def _persona_rows(seed: int, m: int, n: int = 4):
    """B random decompositions on m outcomes as objects and as rows: parents
    (B, m), child logs (B, n, m), weights (B, n) and weight changes d (B, n)
    that amplify argmax d; plus one sorted event per row."""
    (agents, beta, d), usable = random_weight_change(rng_from(seed, 0), m, n, 1e-3, (B,))
    assert usable.all()
    space = OutcomeSpace(m)
    decomps = [
        make_decomposition([Dist(space, a) for a in agents[b]], Weights(beta[b])) for b in range(B)
    ]
    rng = rng_from(seed)
    events = [np.sort(random_event(rng, m)) for _ in range(B)]
    p = np.stack([decomp.parent.p for decomp in decomps])
    return decomps, p, np.log(agents), beta, d, events


@pytest.mark.parametrize("m", [5, 8, 13])
def test_profile_and_compensation_rows_are_the_public_calls(m):
    decomps, p, logs, beta, d, _ = _persona_rows(708 + m, m)
    V = persona._centered(p, logs)
    predicted = persona._combine(d, V)
    h = d.argmax(axis=-1)
    rows = persona._compensation(p, logs, beta, d, h, d[np.arange(B), h], None)
    for b, decomp in enumerate(decomps):
        profiles = centered_profiles(decomp)
        assert np.array_equal(V[b], [prof.v for prof in profiles]), b
        one, residual_norm_fn = first_order_delta_l(profiles, d[b])
        assert np.array_equal(predicted[b], one.f), b
        assert persona._residual(p, predicted, 1e-2)[b] == residual_norm_fn(1e-2), b
        rep = compensation_bound(decomp, int(h[b]), float(d[b, h[b]]), None, d[b])
        assert np.array_equal(rows["inner_products"][b], rep.inner_products), b
        assert tuple(np.flatnonzero(rows["anti"][b])) == rep.anti_indices, b
        for key in ("budget", "target_norm", "residual_norm", "delta_l_norm", "lhs", "rhs", "slack"):
            assert rows[key][b] == getattr(rep, key), (b, key)


@pytest.mark.parametrize("m", [5, 8, 13])
def test_span_kernel_rows_are_the_public_span_calls(m):
    """Suppression, its event change, projection gain (a new direction, and a
    spanned one whose enlarged basis drops a direction) and the KL budget."""
    decomps, p, logs, _, _, events = _persona_rows(730 + m, m, 3)
    rng = rng_from(731, m)
    V = persona._centered(p, logs)
    g = persona._event_direction(p, events)
    raw = rng.standard_normal((B, m))
    w = raw - (p * raw).sum(axis=-1, keepdims=True)
    delta_l, achieved, proj_norm, dim = persona._suppression(p, V, g, 0.05)
    exact, linear = persona._event_change(p, events, delta_l)
    gains = [persona._projection_gain(p, V, x, g, 0.05) for x in (w, V[:, 0])]
    tilt = 0.01 * rng.standard_normal((B, m))
    kl_value, half_var = persona._kl_budget(p, tilt)
    for b, decomp in enumerate(decomps):
        profiles, event, base = centered_profiles(decomp), events[b], decomp.parent
        plan = optimal_suppression(profiles, event, 0.05)
        assert np.array_equal(delta_l[b], plan.delta_l.f), b
        assert (achieved[b], proj_norm[b], dim[b]) == (
            plan.achieved, plan.projection_norm, plan.span_dim
        ), b
        assert (exact[b], linear[b]) == event_first_order(base, event, plan.delta_l), b
        for rows, x in zip(gains, (LogProfile(base, w[b]), profiles[0])):
            rep = projection_gain(profiles, x, event, 0.05)
            assert {key: value[b] for key, value in rows.items()} == {
                key: getattr(rep, key) for key in rows
            }, b
        assert (kl_value[b], half_var[b]) == kl_budget(base, ScoreFn(base.space, tilt[b])), b
    assert not gains[0]["w_in_span"].any() and gains[1]["w_in_span"].all()
    assert (gains[0]["enlarged_dim"] == 4).all() and (gains[1]["enlarged_dim"] == 3).all()


@pytest.mark.parametrize("m", [5, 8, 13])
def test_span_rows_keep_the_one_instance_arithmetic(m):
    """The basis, projection and event direction of each row equal the
    one-instance arithmetic spelled out on 1-D arrays: one SVD of the row's
    matrix with its kept columns transposed, a projection summed row by row
    from zero, an event mass summed over the event alone.  A basis stored
    with strided rows, a masked event sum or a matrix product in place of
    the row-by-row sum each moves some of these bits at m >= 8."""
    decomps, p, logs, _, _, events = _persona_rows(750 + m, m)
    V = persona._centered(p, logs)
    g = persona._event_direction(p, events)
    basis, dim = persona._p_orthonormal_basis(p, V)
    proj = persona._project(p, basis, g)
    for b in range(B):
        root = np.sqrt(p[b])
        u, s, _ = np.linalg.svd((V[b] * root).T, full_matrices=False)
        keep = s * s > max(persona.PIVOT_REL_TOL * s.max() ** 2, persona.ZERO_PIVOT_ABS)
        one = u[:, keep].T / root
        direction = -p[b][events[b]].sum() + np.isin(np.arange(m), events[b])
        assert np.array_equal(g[b], direction), b
        assert dim[b] == len(one) and np.array_equal(basis[b, : dim[b]], one), b
        coef = (p[b] * g[b] * one).sum(axis=-1)
        assert np.array_equal(proj[b], sum(coef[:, None] * one, np.zeros(m))), b
