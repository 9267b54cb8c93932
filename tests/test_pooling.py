"""Log and linear pooling against extended-precision oracles, plus the
Decomposition witness contract and the tilt representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _gen import random_dist, random_family, random_strict_weights
from logpool import (
    Decomposition,
    Dist,
    NonFinite,
    NonPositiveEntry,
    NotAPoolWitness,
    NotNormalized,
    OutcomeSpace,
    ParamOutOfRange,
    SpaceMismatch,
    Weights,
    expect,
    linear_pool,
    log_pool,
    log_pool_arrays,
    log_pool_with_log_z,
    make_decomposition,
    make_dist,
    rng_from,
    tilt_representation,
    tv,
)
from logpool.core import require_prob_rows
from logpool.pooling import linear_pool_arrays


def test_log_pool_matches_oracle_on_random_families():
    rng = rng_from(201)
    for _ in range(150):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        agents, weights = random_family(rng, m, n)
        pooled = log_pool(agents, weights)
        oracle = _oracles.mp_log_pool([a.p for a in agents], weights.beta)
        assert _oracles.tv_against(pooled.p, oracle) <= 1e-12


def test_linear_pool_matches_oracle_on_random_families():
    rng = rng_from(202)
    for _ in range(150):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        agents, weights = random_family(rng, m, n)
        pooled = linear_pool(agents, weights)
        oracle = _oracles.mp_linear_pool([a.p for a in agents], weights.beta)
        assert _oracles.tv_against(pooled.p, oracle) <= 1e-12


def test_linear_pool_arrays_validates_the_rows_it_makes():
    probs = np.full((3, 2, 4), 0.25)
    probs[2, 1, 0] = np.nan
    with pytest.raises(NonFinite, match="in row 2 must be finite"):
        linear_pool_arrays(probs, np.full((3, 2), 0.5))


def test_log_normalizer_matches_oracle_and_is_nonpositive():
    rng = rng_from(203)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        agents, weights = random_family(rng, m, n)
        pooled, log_z = log_pool_with_log_z(agents, weights)
        assert log_z <= 1e-15
        assert log_z == pytest.approx(
            _oracles.mp_log_z([a.p for a in agents], weights.beta), abs=1e-12
        )
        # the unnormalized geometric mean, renormalized, is the pool
        unnorm = np.exp(
            sum(b * a.log_p for a, b in zip(agents, weights.beta)) - log_z
        )
        assert np.abs(unnorm - pooled.p).max() <= 1e-12


def test_log_pool_on_peaked_inputs_stays_finite():
    space = OutcomeSpace(4)
    sharp = make_dist(space, [1.0, 1e-300, 1e-300, 1e-300])
    flat = make_dist(space, [1.0, 1.0, 1.0, 1.0])
    pooled = log_pool([sharp, flat], Weights.uniform(2))
    assert np.all(np.isfinite(pooled.p)) and np.all(pooled.p > 0.0)


def test_identical_children_pool_to_themselves_exactly():
    rng = rng_from(204)
    space = OutcomeSpace(7)
    d = random_dist(rng, space)
    w = random_strict_weights(rng, 3)
    pooled, log_z = log_pool_with_log_z([d, d, d], w)
    assert tv(pooled, d) <= 1e-15
    assert abs(log_z) <= 1e-12
    assert tv(linear_pool([d, d, d], w), d) <= 1e-15


def test_one_hot_weights_select_that_agent():
    rng = rng_from(205)
    space = OutcomeSpace(5)
    agents = [random_dist(rng, space) for _ in range(3)]
    w = Weights(np.array([0.0, 1.0, 0.0]))
    assert tv(log_pool(agents, w), agents[1]) <= 1e-15
    assert tv(linear_pool(agents, w), agents[1]) <= 1e-15


def test_zero_weight_agents_are_droppable():
    rng = rng_from(206)
    space = OutcomeSpace(6)
    agents = [random_dist(rng, space) for _ in range(3)]
    w_full = Weights(np.array([0.6, 0.0, 0.4]))
    w_two = Weights(np.array([0.6, 0.4]))
    kept = [agents[0], agents[2]]
    assert tv(log_pool(agents, w_full), log_pool(kept, w_two)) <= 1e-15
    assert tv(linear_pool(agents, w_full), linear_pool(kept, w_two)) <= 1e-15


def test_pool_dispatcher_and_validation():
    rng = rng_from(207)
    space = OutcomeSpace(4)
    agents = [random_dist(rng, space) for _ in range(2)]
    w = Weights.uniform(2)
    assert tv(make_decomposition(agents, w, "log").parent, log_pool(agents, w)) == 0.0
    assert tv(make_decomposition(agents, w, "linear").parent, linear_pool(agents, w)) == 0.0
    with pytest.raises(ParamOutOfRange):
        make_decomposition(agents, w, "geometric")
    other = random_dist(rng, OutcomeSpace(5))
    with pytest.raises(SpaceMismatch):
        log_pool([agents[0], other], w)
    from logpool import LengthMismatch

    with pytest.raises(LengthMismatch):
        log_pool(agents, Weights.uniform(3))


# ---------------------------------------------------------------------------
# Decomposition: parent + children + weights with a verified witness
# ---------------------------------------------------------------------------


def test_decomposition_validates_its_witness():
    rng = rng_from(208)
    space = OutcomeSpace(5)
    agents = [random_dist(rng, space) for _ in range(3)]
    w = random_strict_weights(rng, 3)
    decomp = make_decomposition(agents, w, "log")
    assert tv(log_pool(list(decomp.children), decomp.weights), decomp.parent) <= 1e-12
    assert decomp.n == 3 and decomp.space == space
    imposter = random_dist(rng, space)
    with pytest.raises(NotAPoolWitness):
        Decomposition(imposter, tuple(agents), w, "log")


def test_decomposition_rejects_malformed_families():
    from logpool import LengthMismatch

    rng = rng_from(209)
    space = OutcomeSpace(4)
    agents = [random_dist(rng, space) for _ in range(2)]
    with pytest.raises(LengthMismatch):
        make_decomposition([agents[0]], Weights(np.array([1.0])), "log")
    with pytest.raises(ParamOutOfRange):
        make_decomposition(agents, Weights.uniform(2), "mystery")


def test_tilt_representation_recovers_children_and_balances():
    rng = rng_from(210)
    for _ in range(25):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        agents, weights = random_family(rng, m, n)
        decomp = make_decomposition(agents, weights, "log")
        tilts = tilt_representation(decomp.parent, list(decomp.children), weights)
        combined = sum(b * h.f for b, h in zip(weights.beta, tilts))
        assert np.abs(combined).max() <= 1e-9
        for child, h in zip(decomp.children, tilts):
            recovered = decomp.parent.log_p + h.f
            recovered = np.exp(recovered - recovered.max())
            recovered /= recovered.sum()
            assert np.abs(recovered - child.p).max() <= 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_log_pool_of_tilted_family_is_tilt_of_pool(seed):
    """Tilting every agent by the same score tilts the pool by it too."""
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    space = OutcomeSpace(m)
    agents = [random_dist(rng, space) for _ in range(3)]
    w = random_strict_weights(rng, 3)
    g = rng.standard_normal(m)
    from logpool import dist_from_log_weights

    tilted = [dist_from_log_weights(space, a.log_p + g) for a in agents]
    lhs = log_pool(tilted, w)
    rhs = dist_from_log_weights(space, log_pool(agents, w).log_p + g)
    assert tv(lhs, rhs) <= 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_pool_means_are_mixtures(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    space = OutcomeSpace(m)
    agents = [random_dist(rng, space) for _ in range(3)]
    w = random_strict_weights(rng, 3)
    f = rng.standard_normal(m)
    mixed = linear_pool(agents, w)
    direct = sum(b * expect(a, f) for a, b in zip(agents, w.beta))
    assert expect(mixed, f) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# the stacked kernel behind log_pool
# ---------------------------------------------------------------------------


def _stacked_families(seed, m, n, batch):
    rng = rng_from(seed, m, n)
    families = [random_family(rng, m, n) for _ in range(batch)]
    logs = np.stack([[a.log_p for a in agents] for agents, _ in families])
    beta = np.stack([w.beta for _, w in families])
    return families, logs, beta


@pytest.mark.parametrize("m, n", [(2, 2), (3, 6), (8, 4), (13, 5), (13, 6)])
def test_stacked_log_pool_rows_match_per_instance_pools(m, n):
    families, logs, beta = _stacked_families(221, m, n, 120)
    p, log_z = log_pool_arrays(logs, beta)
    assert p.shape == (120, m) and log_z.shape == (120,)
    for row, (agents, weights) in enumerate(families):
        pooled, one_log_z = log_pool_with_log_z(agents, weights)
        assert np.abs(p[row] - pooled.p).max() <= 1e-15
        assert np.abs(p[row] - log_pool(agents, weights).p).max() <= 1e-15
        assert abs(log_z[row] - one_log_z) <= 1e-15
    # any leading shape: the same rows arranged as a 10 x 12 grid
    p_grid, log_z_grid = log_pool_arrays(logs.reshape(10, 12, n, m), beta.reshape(10, 12, n))
    assert np.array_equal(p_grid.reshape(120, m), p)
    assert np.array_equal(log_z_grid.reshape(120), log_z)
    require_prob_rows(p)


def _zero_entry(row):
    row[0] = 0.0


def _off_the_simplex(row):
    row *= 1.0 + 1e-9


def _nan_entry(row):
    row[-1] = np.nan


@pytest.mark.parametrize(
    "spoil, error",
    [(_zero_entry, NonPositiveEntry), (_off_the_simplex, NotNormalized), (_nan_entry, NonFinite)],
)
def test_a_spoiled_pooled_row_fails_as_its_dist_would(spoil, error):
    _, logs, beta = _stacked_families(223, 5, 3, 100)
    p = log_pool_arrays(logs, beta)[0]
    spoil(p[37])
    with pytest.raises(error):
        Dist(OutcomeSpace(5), p[37])
    with pytest.raises(error, match="in row 37"):
        require_prob_rows(p)
    require_prob_rows(np.delete(p, 37, axis=0))


@pytest.mark.parametrize("m, n", [(2, 2), (3, 6), (8, 4), (13, 5)])
def test_stacked_linear_pool_rows_match_per_instance_pools(m, n):
    families, logs, beta = _stacked_families(225, m, n, 110)
    p = linear_pool_arrays(np.exp(logs), beta)
    assert p.shape == (110, m)
    for row, (agents, weights) in enumerate(families):
        assert np.array_equal(linear_pool_arrays(np.stack([a.p for a in agents]), weights.beta),
                              linear_pool(agents, weights).p)
        assert np.abs(p[row] - linear_pool(agents, weights).p).max() <= 1e-15
    require_prob_rows(p)
