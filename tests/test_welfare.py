"""Welfare gaps: the definition, its entropy/KL breakdown, the covariance
test, binary closed form, and the weighted-sum identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _gen import random_decomposition, random_dist, random_family
from logpool import (
    Dist,
    IdentityMismatch,
    OutcomeSpace,
    ScoreFn,
    Weights,
    binary_gap_closed_form,
    covariance_condition,
    entropy,
    gap_terms,
    kl,
    linear_pool,
    log_pool_arrays,
    log_pool_with_log_z,
    make_decomposition,
    make_dist,
    rng_from,
    unanimity_report,
    uniform,
    welfare_gap,
)
from logpool.welfare import covariance_terms


def test_welfare_gap_matches_oracle_definition():
    rng = rng_from(301)
    for _ in range(150):
        m = int(rng.integers(2, 12))
        space = OutcomeSpace(m)
        agent = random_dist(rng, space)
        pooled = random_dist(rng, space)
        assert welfare_gap(agent, pooled) == pytest.approx(
            _oracles.mp_welfare_gap(agent.p, pooled.p), abs=1e-12
        )


def test_welfare_gap_breakdown_identity():
    rng = rng_from(302)
    for _ in range(150):
        m = int(rng.integers(2, 12))
        space = OutcomeSpace(m)
        agent = random_dist(rng, space)
        pooled = random_dist(rng, space)
        breakdown = entropy(agent) - entropy(pooled) - kl(pooled, agent)
        assert welfare_gap(agent, pooled) == pytest.approx(breakdown, abs=1e-9)


def test_gap_against_self_is_zero():
    rng = rng_from(303)
    d = random_dist(rng, OutcomeSpace(6))
    assert welfare_gap(d, d) == pytest.approx(0.0, abs=1e-15)


def test_covariance_condition_equals_welfare_shift():
    """Cov_agent(welfare, pool/agent) is exactly the pooled-vs-own mean shift."""
    rng = rng_from(304)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        space = OutcomeSpace(m)
        agent = random_dist(rng, space)
        pooled = random_dist(rng, space)
        w = ScoreFn(space, rng.standard_normal(m))
        c, verdict = covariance_condition(agent, w, pooled)
        shift = float(pooled.p @ w.f - agent.p @ w.f)
        assert c == pytest.approx(shift, abs=1e-10)
        assert verdict == (c >= -1e-9)


def test_covariance_condition_with_log_score_is_the_gap():
    rng = rng_from(305)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        space = OutcomeSpace(m)
        agent = random_dist(rng, space)
        pooled = random_dist(rng, space)
        c, _ = covariance_condition(agent, ScoreFn(space, agent.log_p), pooled)
        assert c == pytest.approx(welfare_gap(agent, pooled), abs=1e-10)


def test_unanimity_report_fields_are_consistent():
    rng = rng_from(306)
    decomp = random_decomposition(rng, 6, 4)
    rep = unanimity_report(decomp)
    assert rep.gaps.shape == (4,)
    for i, child in enumerate(decomp.children):
        assert rep.gaps[i] == pytest.approx(
            welfare_gap(child, decomp.parent), abs=1e-12
        )
    assert rep.min_gap == pytest.approx(float(rep.gaps.min()), abs=0.0)
    assert rep.unanimous == bool((rep.gaps >= -1e-9).all())
    assert rep.strictly_unanimous == bool((rep.gaps > 1e-9).all())


def test_unanimity_report_accepts_linear_pools():
    rng = rng_from(307)
    agents, weights = random_family(rng, 5, 3)
    decomp = make_decomposition(agents, weights, "linear")
    rep = unanimity_report(decomp)
    assert rep.gaps.shape == (3,)


def test_weighted_gap_sum_log_pool_entropy_identity():
    """For log pools: sum_i beta_i gap_i = log Z + sum_i beta_i H(P_i) − H(P).

    An independent derivation from the definition; exercised as an oracle
    for the weighted sum.
    """
    rng = rng_from(308)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        agents, weights = random_family(rng, m, n)
        decomp = make_decomposition(agents, weights, "log")
        pooled, log_z = log_pool_with_log_z(agents, weights)
        expected = (
            log_z
            + sum(b * entropy(a) for a, b in zip(agents, weights.beta))
            - entropy(pooled)
        )
        weighted = decomp.weights.beta @ unanimity_report(decomp).gaps
        assert weighted == pytest.approx(expected, abs=1e-10)


def test_weighted_gap_sum_negative_for_linear_pools_of_distinct_agents():
    rng = rng_from(309)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        agents, weights = random_family(rng, m, n)
        decomp = make_decomposition(agents, weights, "linear")
        assert decomp.weights.beta @ unanimity_report(decomp).gaps < -1e-12


def test_binary_closed_form_matches_direct_gap():
    space = OutcomeSpace(2)
    rng = rng_from(310)
    for _ in range(200):
        x_i = float(rng.uniform(0.02, 0.98))
        x = float(rng.uniform(0.02, 0.98))
        agent = make_dist(space, [x_i, 1.0 - x_i])
        pooled = make_dist(space, [x, 1.0 - x])
        assert binary_gap_closed_form(x_i, x) == pytest.approx(
            welfare_gap(agent, pooled), abs=1e-12
        )
    with pytest.raises(Exception):
        binary_gap_closed_form(0.0, 0.5)


def test_uniform_pool_never_strictly_helps():
    rng = rng_from(311)
    for _ in range(60):
        m = int(rng.integers(2, 10))
        space = OutcomeSpace(m)
        r = random_dist(rng, space)
        gap = welfare_gap(r, uniform(space))
        assert gap <= 1e-12
        assert gap == pytest.approx(
            -(kl(r, uniform(space)) + kl(uniform(space), r)), abs=1e-10
        )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_binary_log_pool_lands_strictly_between_the_agents(seed):
    """On two outcomes the pooled mass sits strictly between the two agents',
    so at most one of them can strictly gain."""
    rng = rng_from(seed)
    x1 = float(rng.uniform(0.05, 0.95))
    x2 = float(rng.uniform(0.05, 0.95))
    if abs(x1 - x2) < 1e-3:
        return
    b1 = float(rng.uniform(0.1, 0.9))
    space = OutcomeSpace(2)
    agents = [make_dist(space, [x1, 1 - x1]), make_dist(space, [x2, 1 - x2])]
    pooled, _ = log_pool_with_log_z(agents, Weights(np.array([b1, 1 - b1])))
    lo, hi = min(x1, x2), max(x1, x2)
    assert lo < pooled.p[0] < hi
    g1 = welfare_gap(agents[0], pooled)
    g2 = welfare_gap(agents[1], pooled)
    assert not (g1 > 1e-9 and g2 > 1e-9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_is_linear_in_the_pool_argument(seed):
    """Δ_R(.) is an expectation difference, hence affine in the pool."""
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    space = OutcomeSpace(m)
    r = random_dist(rng, space)
    p1 = random_dist(rng, space)
    p2 = random_dist(rng, space)
    lam = float(rng.uniform(0.1, 0.9))
    mix = linear_pool([p1, p2], Weights(np.array([lam, 1 - lam])))
    assert welfare_gap(r, mix) == pytest.approx(
        lam * welfare_gap(r, p1) + (1 - lam) * welfare_gap(r, p2), abs=1e-10
    )


# ---------------------------------------------------------------------------
# the stacked kernel behind welfare_gap / unanimity_report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(2, 2), (3, 6), (8, 4), (13, 5), (13, 6)])
def test_stacked_gap_rows_match_per_instance_reports(m, n):
    rng = rng_from(311, m, n)
    decomps = [random_decomposition(rng, m, n) for _ in range(110)]
    children = np.stack([[c.p for c in d.children] for d in decomps])
    beta = np.stack([d.weights.beta for d in decomps])
    parents = log_pool_arrays(np.log(children), beta)[0]
    gaps, h_children, h_parents, kl_terms = gap_terms(children, parents[:, None, :])
    assert gaps.shape == kl_terms.shape == h_children.shape == (110, n)
    assert h_parents.shape == (110, 1)
    for row, d in enumerate(decomps):
        assert np.abs(parents[row] - d.parent.p).max() <= 1e-15
        rep = unanimity_report(d)
        assert np.abs(gaps[row] - rep.gaps).max() <= 1e-15
        assert np.abs(h_children[row] - rep.entropy_children).max() <= 1e-15
        assert abs(h_parents[row, 0] - rep.entropy_parent) <= 1e-15
        assert np.abs(kl_terms[row] - rep.kl_parent_children).max() <= 1e-15
        assert abs(beta[row] @ gaps[row] - d.weights.beta @ rep.gaps) <= 1e-15
        for i, child in enumerate(d.children):
            assert abs(gaps[row, i] - welfare_gap(child, d.parent)) <= 1e-15


def _unchecked_dist(space, p):
    """A Dist that skips validation, to feed the object path a spoiled row."""
    d = object.__new__(Dist)
    object.__setattr__(d, "space", space)
    object.__setattr__(d, "p", p)
    return d


def test_a_spoiled_gap_row_fails_as_the_object_path_would():
    rng = rng_from(313)
    space = OutcomeSpace(6)
    agents = np.stack([random_dist(rng, space).p for _ in range(100)])
    pools = np.stack([random_dist(rng, space).p for _ in range(100)])
    gap_terms(agents, pools)
    # a pool row scaled far off the simplex: the entropy and KL forms cancel
    # catastrophically, so the two forms of the gap disagree
    pools[41] *= 1e12
    with pytest.raises(IdentityMismatch):
        welfare_gap(Dist(space, agents[41]), _unchecked_dist(space, pools[41]))
    with pytest.raises(IdentityMismatch, match="in row 41"):
        gap_terms(agents, pools)
    gap_terms(np.delete(agents, 41, axis=0), np.delete(pools, 41, axis=0))


def test_stacked_covariance_rows_match_per_instance_conditions():
    rng = rng_from(315)
    for m in (2, 5, 13):
        space = OutcomeSpace(m)
        agents = [random_dist(rng, space) for _ in range(60)]
        pools = [random_dist(rng, space) for _ in range(60)]
        welfare = rng.standard_normal((60, m))
        stacked = np.stack([a.p for a in agents]), np.stack([q.p for q in pools])
        c = covariance_terms(stacked[0], welfare, stacked[1])
        assert c.shape == (60,)
        for row in range(60):
            one, _ = covariance_condition(agents[row], ScoreFn(space, welfare[row]), pools[row])
            assert c[row] == one
