"""Factorization into distinct children, prescribed-children factorization,
compatible splits, and the parent-benefit-not-inherited demonstration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_decomposition, random_dist, random_strict_weights
from logpool import (
    LAMBDA_SWEEP,
    OutcomeSpace,
    ParamOutOfRange,
    PreconditionViolation,
    ScoreFn,
    UniformParent,
    Weights,
    WeightTooConcentrated,
    compatible_split,
    factor_pairwise_distinct,
    factor_with_fixed,
    log_pool,
    make_decomposition,
    make_dist,
    parent_benefit_counterexample,
    parent_benefit_sweep,
    rng_from,
    split_invariance_check,
    tv,
    unanimity_report,
    uniform,
    welfare_gap,
)


# ---------------------------------------------------------------------------
# Pairwise-distinct factorization
# ---------------------------------------------------------------------------


def test_factor_pairwise_distinct_reconstructs_and_separates():
    rng = rng_from(501)
    for trial in range(40):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(2, 7))
        space = OutcomeSpace(m)
        parent = random_dist(rng, space)
        weights = random_strict_weights(rng, n)
        decomp = factor_pairwise_distinct(parent, weights, seed=trial)
        assert tv(log_pool(list(decomp.children), weights), parent) <= 1e-12
        family = [parent, *decomp.children]
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                assert tv(family[a], family[b]) > 1e-6


def test_factor_pairwise_distinct_is_seed_deterministic():
    rng = rng_from(502)
    parent = random_dist(rng, OutcomeSpace(5))
    w = Weights.uniform(3)
    d1 = factor_pairwise_distinct(parent, w, seed=9)
    d2 = factor_pairwise_distinct(parent, w, seed=9)
    d3 = factor_pairwise_distinct(parent, w, seed=10)
    for c1, c2 in zip(d1.children, d2.children):
        assert np.array_equal(c1.p, c2.p)
    assert any(not np.array_equal(c1.p, c3.p) for c1, c3 in zip(d1.children, d3.children))


def test_a_negative_factor_seed_is_a_logpool_error():
    parent = random_dist(rng_from(504), OutcomeSpace(4))
    with pytest.raises(ParamOutOfRange, match="non-negative"):
        factor_pairwise_distinct(parent, Weights.uniform(3), seed=-2)


def test_factor_needs_two_positive_weights():
    rng = rng_from(503)
    parent = random_dist(rng, OutcomeSpace(4))
    with pytest.raises(WeightTooConcentrated):
        factor_pairwise_distinct(parent, Weights(np.array([1.0, 0.0, 0.0])), seed=0)


def test_factor_with_zero_weight_child_still_emits_distinct_children():
    rng = rng_from(504)
    parent = random_dist(rng, OutcomeSpace(6))
    w = Weights(np.array([0.0, 0.55, 0.45]))
    decomp = factor_pairwise_distinct(parent, w, seed=3)
    assert len(decomp.children) == 3
    assert tv(log_pool(list(decomp.children), w), parent) <= 1e-12


# ---------------------------------------------------------------------------
# Factorization with prescribed children
# ---------------------------------------------------------------------------


def test_factor_with_fixed_passes_children_through_bit_exactly():
    rng = rng_from(505)
    space = OutcomeSpace(6)
    parent = random_dist(rng, space)
    fixed = [random_dist(rng, space) for _ in range(2)]
    w = random_strict_weights(rng, 5)
    decomp = factor_with_fixed(parent, fixed, w, seed=1)
    for given_child, kept in zip(fixed, decomp.children[:2]):
        assert kept is given_child or np.array_equal(kept.p, given_child.p)
    assert tv(log_pool(list(decomp.children), w), parent) <= 1e-12


def test_factor_with_fixed_preconditions():
    rng = rng_from(506)
    space = OutcomeSpace(4)
    parent = random_dist(rng, space)
    fixed = [random_dist(rng, space)]
    with pytest.raises(PreconditionViolation):
        factor_with_fixed(parent, fixed, Weights.uniform(2), seed=0)  # n < k+2
    with pytest.raises(PreconditionViolation):
        factor_with_fixed(
            parent, fixed, Weights(np.array([0.5, 0.0, 0.5])), seed=0
        )  # solved child weightless
    with pytest.raises(PreconditionViolation):
        factor_with_fixed(
            parent, fixed, Weights(np.array([0.0, 0.5, 0.5])), seed=0
        )  # no weight on any fixed child


# ---------------------------------------------------------------------------
# Compatible splits
# ---------------------------------------------------------------------------


def test_compatible_split_recovers_the_child():
    rng = rng_from(507)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        space = OutcomeSpace(m)
        child = random_dist(rng, space)
        alpha = float(rng.uniform(0.05, 0.95))
        g = ScoreFn(space, rng.standard_normal(m))
        first, second = compatible_split(child, alpha, g)
        repooled = log_pool([first, second], Weights(np.array([alpha, 1 - alpha])))
        assert tv(repooled, child) <= 1e-12


def test_split_leaves_the_surrounding_pool_unchanged():
    rng = rng_from(508)
    for trial in range(40):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        decomp = random_decomposition(rng, m, n)
        k = int(rng.integers(0, n))
        alpha = float(rng.uniform(0.05, 0.95))
        g = ScoreFn(decomp.space, rng.standard_normal(m))
        first, second, delta = split_invariance_check(decomp, k, alpha, g)
        assert delta <= 1e-10
        # direct re-pool at the refined weights agrees
        children = list(decomp.children)
        beta = decomp.weights.beta
        refined = children[:k] + [first, second] + children[k + 1 :]
        w = np.concatenate(
            [beta[:k], [alpha * beta[k], (1 - alpha) * beta[k]], beta[k + 1 :]]
        )
        assert tv(log_pool(refined, Weights(w)), decomp.parent) <= 1e-10


def test_clone_split_preserves_every_gap():
    rng = rng_from(509)
    decomp = random_decomposition(rng, 6, 3)
    k = 1
    zero = ScoreFn.zero(decomp.space)
    first, second, delta = split_invariance_check(decomp, k, 0.37, zero)
    assert delta <= 1e-12
    assert tv(first, decomp.children[k]) <= 1e-12
    assert tv(second, decomp.children[k]) <= 1e-12
    before = welfare_gap(decomp.children[k], decomp.parent)
    assert welfare_gap(first, decomp.parent) == pytest.approx(before, abs=1e-10)
    assert welfare_gap(second, decomp.parent) == pytest.approx(before, abs=1e-10)


def test_split_validation():
    rng = rng_from(510)
    child = random_dist(rng, OutcomeSpace(4))
    g = ScoreFn(OutcomeSpace(4), np.ones(4))
    with pytest.raises(ParamOutOfRange):
        compatible_split(child, 0.0, g)
    with pytest.raises(ParamOutOfRange):
        compatible_split(child, 1.0, g)


# ---------------------------------------------------------------------------
# Parent benefit is not inherited
# ---------------------------------------------------------------------------


def test_parent_benefit_counterexample_shapes():
    space = OutcomeSpace(3)
    p1 = make_dist(space, [0.5, 0.3, 0.2])
    rep = parent_benefit_counterexample(p1, t=2.0, alpha=0.5, o_star=0, lam=20.0)
    assert rep.parent_gap > 0.0
    # the split children re-pool to the parent child, so the surrounding
    # pool is untouched
    repooled = log_pool(
        [rep.depressed_child, rep.partner_child], Weights(np.array([0.5, 0.5]))
    )
    assert tv(repooled, p1) <= 1e-10


def test_parent_benefit_sweep_finds_a_losing_subagent():
    space = OutcomeSpace(3)
    p1 = make_dist(space, [0.5, 0.3, 0.2])
    sweep = parent_benefit_sweep(p1, t=2.0, alpha=0.5, o_star=0)
    assert sweep.parent_gap > 0.0
    assert sweep.first_losing_lambda is not None
    assert sweep.first_losing_lambda in LAMBDA_SWEEP
    losing = dict(sweep.rows)[sweep.first_losing_lambda]
    assert losing < 0.0
    # rows track the schedule until underflow ends representability
    lams = [lam for lam, _ in sweep.rows]
    assert lams == list(LAMBDA_SWEEP[: len(lams)])


def test_parent_benefit_sweep_is_monotone_in_sharpness():
    """E_{P_t}[log P1] is nondecreasing in the sharpening exponent t."""
    from logpool import dist_from_log_weights, expect

    space = OutcomeSpace(3)
    p1 = make_dist(space, [0.5, 0.3, 0.2])
    values = []
    for t in (1.0 + 1e-9, 1.5, 2.0, 3.0):
        p_t = dist_from_log_weights(space, t * p1.log_p)
        values.append(expect(p_t, p1.log_p))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_parent_benefit_rejects_uniform_parent():
    space = OutcomeSpace(3)
    with pytest.raises(UniformParent):
        parent_benefit_counterexample(
            uniform(space), t=2.0, alpha=0.5, o_star=0, lam=4.0
        )


def test_depression_kl_grows_with_strength_with_coarse_grain_certificate():
    """KL(P_t ‖ depressed child) increases along the lambda schedule, and the
    two-cell coarse graining over the depressed outcome certifies growth."""
    from logpool import coarse_grain_bound, dist_from_log_weights

    space = OutcomeSpace(3)
    p1 = make_dist(space, [0.5, 0.3, 0.2])
    t, alpha, o_star = 2.0, 0.5, 0
    p_t = dist_from_log_weights(space, t * p1.log_p)
    kls, bounds = [], []
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        g = np.zeros(3)
        g[o_star] = -lam
        depressed, _ = compatible_split(p1, alpha, ScoreFn(space, g))
        value, bound = coarse_grain_bound(p_t, depressed, [o_star])
        kls.append(value)
        bounds.append(bound)
        assert value >= bound - 1e-12
    assert all(b > a for a, b in zip(kls, kls[1:]))
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_any_split_repooled_is_identity(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    space = OutcomeSpace(m)
    child = random_dist(rng, space)
    alpha = float(rng.uniform(0.05, 0.95))
    g = ScoreFn(space, 3.0 * rng.standard_normal(m))
    first, second = compatible_split(child, alpha, g)
    repooled = log_pool([first, second], Weights(np.array([alpha, 1.0 - alpha])))
    assert tv(repooled, child) <= 1e-11
