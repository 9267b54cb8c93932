"""Explicit instance families: cyclic strict-improvement, the analytic
unanimity construction with its closed-form pool, threshold discovery,
the peaked incompatible family, and the engineered counteragent setup."""

import mpmath as mp
import numpy as np
import pytest

import _oracles
from logpool import (
    DegenerateWeights,
    EPSILON_GRID,
    NonPositiveEntry,
    NotFound,
    OutcomeSpace,
    ParamOutOfRange,
    ScoreFn,
    Weights,
    analytic_unanimity_instance,
    covariance_condition,
    cyclic_welfare_instance,
    expect,
    find_epsilon_for_unanimity,
    log_pool,
    make_decomposition,
    norm_p,
    peaked_incompatible_family,
    rng_from,
    single_counteragent_instance,
    tv,
    unanimity_report,
    uniform,
)
from logpool.constructions import (
    analytic_unanimity_rows, cyclic_welfare_rows, peaked_incompatible_rows, random_beta,
    random_dist, random_family, random_probs,
)
from logpool.core import normalize_rows

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# Cyclic welfare instance
# ---------------------------------------------------------------------------


def test_cyclic_pool_is_exactly_uniform():
    for n in (2, 3, 5, 8):
        inst = cyclic_welfare_instance(n, 0.4 / n, 2.0)
        pooled = log_pool(list(inst.agents), inst.weights)
        assert tv(pooled, uniform(OutcomeSpace(n))) <= 1e-15


def test_cyclic_welfare_margins_match_the_closed_form():
    """Each agent's expected welfare rises by exactly C(1/n − ε)."""
    for n in (2, 3, 5):
        for eps_frac in (0.3, 0.05):
            eps = eps_frac / n
            C = 2.0
            inst = cyclic_welfare_instance(n, eps, C)
            pooled = log_pool(list(inst.agents), inst.weights)
            for agent, welfare in zip(inst.agents, inst.welfares):
                before = expect(agent, welfare)
                after = expect(pooled, welfare)
                assert after - before == pytest.approx(C * (1.0 / n - eps), abs=1e-12)
                c, verdict = covariance_condition(agent, welfare, pooled)
                assert verdict and c == pytest.approx(after - before, abs=1e-12)


def test_cyclic_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        cyclic_welfare_instance(1, 0.1, 1.0)
    with pytest.raises(ParamOutOfRange):
        cyclic_welfare_instance(3, 1.0 / 3.0, 1.0)
    with pytest.raises(ParamOutOfRange):
        cyclic_welfare_instance(3, 0.1, 0.0)


# ---------------------------------------------------------------------------
# Analytic unanimity construction
# ---------------------------------------------------------------------------


def _mp_unanimity_pool(n, eps, beta):
    """Closed-form log-pool of the analytic instance at 50 digits.

    Unnormalized masses: outcome 0 carries prod_i (1-a-(n-1)d)^beta_i; the
    private outcome of agent i carries a^beta_i d^(1-beta_i) = d·(a/d)^beta_i
    with a = eps, d = eps^(n+1); with integer exponents this reduces to
    eps^((n+1) - n·beta_i).
    """
    eps = mp.mpf(repr(float(eps)))
    a = eps
    d = eps ** (n + 1)
    beta = [mp.mpf(repr(float(b))) for b in beta]
    shared = mp.mpf(1) - a - (n - 1) * d
    unnorm = [mp.mpf(1) * shared]  # all agents agree on outcome 0
    for i in range(n):
        unnorm.append((a ** beta[i]) * (d ** (mp.mpf(1) - beta[i])))
    z = mp.fsum(unnorm)
    return [u / z for u in unnorm]


def test_analytic_instance_pool_matches_the_closed_form():
    rng = rng_from(401)
    for n in (2, 3, 5):
        for eps in (0.2, 0.05, 0.01):
            for trial in range(2):
                if trial == 0:
                    w = Weights.uniform(n)
                else:
                    raw = 0.2 + rng.random(n)
                    w = Weights(raw / raw.sum())
                decomp = analytic_unanimity_instance(n, eps, w)
                oracle = _mp_unanimity_pool(n, eps, w.beta)
                assert _oracles.tv_against(decomp.parent.p, oracle) <= 1e-12


def test_analytic_instance_shared_outcome_mass_lower_bound():
    """Below the discovered threshold the pooled shared-outcome mass
    exceeds 1 − 2n·eps^c_min with c_i = (n+1) − n·beta_i."""
    for n in (2, 3, 5):
        eps = find_epsilon_for_unanimity(n)
        w = Weights.uniform(n)
        decomp = analytic_unanimity_instance(n, eps, w)
        c_min = (n + 1) - n * float(w.beta.max())
        assert decomp.parent.p[0] > 1.0 - 2 * n * eps**c_min


def test_analytic_instance_validation():
    with pytest.raises(ParamOutOfRange):
        analytic_unanimity_instance(1, 0.1)
    with pytest.raises(ParamOutOfRange):
        analytic_unanimity_instance(3, 0.3)
    with pytest.raises(ParamOutOfRange):
        analytic_unanimity_instance(3, 0.1, Weights.uniform(4))
    with pytest.raises(DegenerateWeights):
        analytic_unanimity_instance(2, 0.1, Weights(np.array([1.0, 0.0])))


def test_find_epsilon_returns_largest_unanimous_grid_point():
    for n in (2, 3):
        eps = find_epsilon_for_unanimity(n)
        grid = [e for e in EPSILON_GRID if e < 0.25]
        assert eps in grid
        assert unanimity_report(
            analytic_unanimity_instance(n, eps)
        ).strictly_unanimous
        larger = [e for e in grid if e > eps]
        if larger:
            eps_next = min(larger)
            assert not unanimity_report(
                analytic_unanimity_instance(n, eps_next)
            ).strictly_unanimous


def test_epsilon_grid_shape():
    assert len(EPSILON_GRID) == 40
    assert EPSILON_GRID[0] == pytest.approx(10 ** (-0.25))
    assert EPSILON_GRID[-1] == pytest.approx(1e-10)
    assert all(a > b for a, b in zip(EPSILON_GRID, EPSILON_GRID[1:]))


# ---------------------------------------------------------------------------
# Peaked incompatible family
# ---------------------------------------------------------------------------


def test_peaked_family_shape_and_masses():
    agents = peaked_incompatible_family(4, 0.1)
    assert len(agents) == 4
    for i, a in enumerate(agents):
        assert a.p[i] == pytest.approx(0.9, abs=1e-15)
        off = np.delete(a.p, i)
        assert np.allclose(off, 0.1 / 3, atol=1e-15)
    with pytest.raises(ParamOutOfRange):
        peaked_incompatible_family(3, 0.5)


def test_peaked_family_weighted_gap_sum_goes_negative_for_small_epsilon():
    rng = rng_from(402)
    for n in (2, 4):
        raw = 0.15 + rng.random(n)
        w = Weights(raw / raw.sum())
        sums = []
        for eps in (0.3, 0.1, 0.01, 1e-4, 1e-6):
            agents = peaked_incompatible_family(n, eps)
            decomp = make_decomposition(agents, w, "log")
            sums.append(w.beta @ unanimity_report(decomp).gaps)
        assert sums[-1] < 0.0
        assert sums[-1] < sums[0]


# ---------------------------------------------------------------------------
# Engineered single-counteragent instance
# ---------------------------------------------------------------------------


def test_single_counteragent_instance_cancels_to_machine_precision():
    decomp, h_index, dbeta = single_counteragent_instance(0.02)
    assert h_index == 0
    assert abs(float(dbeta.sum())) <= 1e-15
    # weighted profiles cancel: re-pooling at the shifted weights is a no-op
    shifted = log_pool(list(decomp.children), Weights(decomp.weights.beta + dbeta))
    assert norm_p(decomp.parent, shifted.log_p - decomp.parent.log_p) <= 1e-12
    # pool is uniform: profile of the third agent is zero
    assert tv(decomp.parent, uniform(decomp.parent.space)) <= 1e-12


def test_single_counteragent_instance_validation():
    with pytest.raises(ParamOutOfRange):
        single_counteragent_instance(0.0)
    with pytest.raises(ParamOutOfRange):
        single_counteragent_instance(0.02, scale=-1.0)
    with pytest.raises(ParamOutOfRange):
        single_counteragent_instance(0.2)  # drains the third agent below zero


def test_array_draws_match_the_object_draws_bit_for_bit():
    for m, n in ((2, 2), (5, 3), (13, 6)):
        a, b = rng_from(130, m, n), rng_from(130, m, n)
        agents, weights = random_family(a, m, n)
        probs, beta = random_probs(b, m, n), random_beta(b, n)
        assert np.array_equal(np.stack([x.p for x in agents]), probs)
        assert np.array_equal(weights.beta, beta)
        assert np.array_equal(random_dist(a, OutcomeSpace(m)).p, random_probs(b, m))


@pytest.mark.parametrize("count", [1, 100])
@pytest.mark.parametrize("m,n", [(2, None), (13, None), (2, 2), (7, 5)])
def test_stacked_draws_are_each_streams_own_draw(count, m, n):
    """A batch of ``count`` draws gives, row by row, the unbatched call made
    ``count`` times in a row on a fresh copy of the stream, bit for bit, and
    leaves the stream where those calls leave it."""
    stream, copy = rng_from(140, m), rng_from(140, m)
    probs, beta = random_probs(stream, m, n, (count,)), random_beta(stream, 4, (count,))
    assert probs.shape == ((count, m) if n is None else (count, n, m))
    assert beta.shape == (count, 4)
    for row in probs:
        assert np.array_equal(row, random_probs(copy, m, n))
    for weights in beta:
        assert np.array_equal(weights, random_beta(copy, 4))
    assert stream.random() == copy.random()


def test_instance_rows_stack_the_object_constructions():
    eps = np.array([0.2, 0.03, 1e-4])
    for n in (2, 3, 5):
        analytic = normalize_rows(analytic_unanimity_rows(n, eps))
        peaked = normalize_rows(peaked_incompatible_rows(n, eps))
        # the cyclic family needs eps < 1/n
        cyclic, welfare = cyclic_welfare_rows(n, eps / n, 2.5)
        cyclic = normalize_rows(cyclic)
        for k, e in enumerate(eps):
            decomp = analytic_unanimity_instance(n, float(e))
            assert np.array_equal(analytic[k], np.stack([c.p for c in decomp.children]))
            family = peaked_incompatible_family(n, float(e))
            assert np.array_equal(peaked[k], np.stack([a.p for a in family]))
            inst = cyclic_welfare_instance(n, float(e) / n, 2.5)
            assert np.array_equal(cyclic[k], np.stack([a.p for a in inst.agents]))
            assert np.array_equal(welfare, np.stack([w.f for w in inst.welfares]))


def test_random_draws_are_validated_as_dist_and_weights_validate():
    # a raw draw of -0.02 is a zero entry after the + 0.02 shift; normalizing
    # it must raise, and a batch error names the first bad row
    class Raw:
        def __init__(self, raw):
            self.raw = raw

        def gamma(self, shape, scale, size):
            return self.raw

        def random(self, size):
            return self.raw

    with pytest.raises(NonPositiveEntry, match="on every outcome$"):
        random_probs(Raw(np.array([-0.02, 0.5, 0.5, 0.5])), 4)
    raw = np.full((2, 3, 4), 0.5)
    raw[1, 2, 3] = -0.02
    with pytest.raises(NonPositiveEntry, match=r"in row \(1, 2\)"):
        random_probs(Raw(raw), 4, 3, (2,))
    # a raw weight below zero survives normalization as a negative weight
    with pytest.raises(ParamOutOfRange):
        random_beta(Raw(np.array([-1.0, 0.5, 0.5])), 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_threshold_walk_agrees_with_the_object_instances(n):
    """The walk scores rows; each grid step it passes must fail as an
    instance, and the one it returns must be strictly unanimous."""
    up = np.arange(1, n + 1, dtype=float)
    for weights in (None, Weights(up / up.sum()), Weights(up[::-1] / up.sum())):
        eps = find_epsilon_for_unanimity(n, weights)
        verdicts = [
            unanimity_report(analytic_unanimity_instance(n, e, weights)).strictly_unanimous
            for e in EPSILON_GRID if eps <= e < 0.25
        ]
        assert verdicts == [False] * (len(verdicts) - 1) + [True]


def test_the_threshold_walk_validates_as_the_instance_does():
    with pytest.raises(ParamOutOfRange):
        find_epsilon_for_unanimity(1)
    with pytest.raises(ParamOutOfRange):
        find_epsilon_for_unanimity(3, Weights.uniform(2))
    with pytest.raises(DegenerateWeights):
        find_epsilon_for_unanimity(2, Weights(np.array([1.0, 0.0])))
