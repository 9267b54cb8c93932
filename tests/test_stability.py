"""Pool-preserving transport, openness certification, and the first-order
analysis of welfare gaps under exponential tilts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_decomposition, random_dist, random_strict_weights, transported
from logpool import (
    Dist,
    NonPositiveEntry,
    NotFound,
    NotStrictlyUnanimous,
    OutcomeSpace,
    ParamOutOfRange,
    ScoreFn,
    SpaceMismatch,
    TiltsNotCentered,
    Weights,
    analytic_unanimity_instance,
    certify_openness,
    cov,
    find_epsilon_for_unanimity,
    local_unanimity_audit,
    log_pool,
    make_decomposition,
    make_dist,
    rng_from,
    tilt_gap_derivative,
    tilt_gap_fd,
    tilt_representation,
    transport,
    tv,
    uniform,
    kl,
    welfare_gap,
)
from logpool.stability import _at_radius, _tv_directions, transport_rows


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


def test_transport_moves_the_pool_exactly():
    rng = rng_from(601)
    for _ in range(60):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 5))
        decomp = random_decomposition(rng, m, n)
        target = random_dist(rng, decomp.space)
        moved = transported(decomp, target)
        repooled = log_pool(list(moved.children), moved.weights)
        assert tv(repooled, target) <= 1e-10


def test_transport_with_equal_target_is_bit_exact_identity():
    rng = rng_from(602)
    decomp = random_decomposition(rng, 6, 3)
    same = decomp.parent
    for child in decomp.children:
        moved = transport(child, decomp.parent, same)
        assert np.array_equal(moved.p, child.p)


def test_transport_composes_along_a_path():
    """Transporting base→mid→target equals transporting base→target."""
    rng = rng_from(603)
    space = OutcomeSpace(7)
    child = random_dist(rng, space)
    base = random_dist(rng, space)
    mid = random_dist(rng, space)
    target = random_dist(rng, space)
    direct = transport(child, base, target)
    stepped = transport(transport(child, base, mid), mid, target)
    assert tv(direct, stepped) <= 1e-13


# ---------------------------------------------------------------------------
# Probing at a tv radius
# ---------------------------------------------------------------------------


def _probe(base, radius, rng):
    """One seeded probe target at tv ``radius`` from ``base``, as
    ``certify_openness`` draws each sample's, or None when no draw fits."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p, found = _at_radius(base.p, *_tv_directions(rng, base.space.size), radius)
    return Dist(base.space, p) if found else None


def test_probe_at_tv_radius_hits_the_radius():
    rng = rng_from(604)
    base = random_dist(rng, OutcomeSpace(6))
    for radius in (1e-4, 1e-3, 1e-2):
        probe = _probe(base, radius, rng_from(604, 1))
        assert probe is not None
        assert tv(base, probe) == pytest.approx(radius, rel=1e-9)


def test_probe_at_tv_radius_gives_up_when_radius_is_impossible():
    base = make_dist(OutcomeSpace(2), [0.5, 0.5])
    assert _probe(base, 0.75, rng_from(605)) is None


# ---------------------------------------------------------------------------
# Openness certification
# ---------------------------------------------------------------------------


def test_certify_openness_on_a_strictly_unanimous_instance():
    eps = find_epsilon_for_unanimity(3)
    decomp = analytic_unanimity_instance(3, eps)
    cert = certify_openness(decomp, samples=16, seed=0)
    assert cert.radius > 0.0
    assert cert.min_gap_at_boundary > 0.0
    assert cert.samples == 16 and cert.seed == 0


def test_certify_openness_radius_weakly_decreases_with_more_samples():
    eps = find_epsilon_for_unanimity(2)
    decomp = analytic_unanimity_instance(2, eps)
    r_small = certify_openness(decomp, samples=4, seed=7).radius
    r_large = certify_openness(decomp, samples=24, seed=7).radius
    assert r_large <= r_small + 1e-15


def test_certify_openness_is_deterministic():
    eps = find_epsilon_for_unanimity(2)
    decomp = analytic_unanimity_instance(2, eps)
    a = certify_openness(decomp, samples=8, seed=3)
    b = certify_openness(decomp, samples=8, seed=3)
    assert a.radius == b.radius
    assert a.min_gap_at_boundary == b.min_gap_at_boundary


@pytest.mark.parametrize("samples", [0, -1, 2.5])
def test_certify_openness_needs_at_least_one_probe(samples):
    """With no probe every bisection step used to pass vacuously (radius
    0.49999809, boundary gap inf); a negative count raised numpy's bare
    ValueError and a fractional one a bare TypeError from ``range``."""
    decomp = analytic_unanimity_instance(2, find_epsilon_for_unanimity(2))
    with pytest.raises(ParamOutOfRange, match="at least one probe"):
        certify_openness(decomp, samples=samples, seed=0)


def test_a_failing_openness_search_stops_after_a_fixed_number_of_steps(monkeypatch):
    """At n = 80 the parent's smallest mass (1.2e-60) over 2^18 lies 217
    halvings below 1/2; with every probe failing, the search stops at 128."""
    from logpool import stability

    monkeypatch.setattr(stability, "UNANIMITY_TOL", np.inf)
    decomp = analytic_unanimity_instance(80, 0.17782794100389229)
    assert decomp.parent.p.min() * 2.0**-18 < 0.5 * 2.0**-216
    with pytest.raises(NotFound, match=r"\(1/2 over 2\^128\)"):
        certify_openness(decomp, samples=1, seed=0)


def test_certify_openness_requires_strict_unanimity():
    rng = rng_from(606)
    # generic random decompositions essentially never have all gaps positive
    for _ in range(10):
        decomp = random_decomposition(rng, 5, 3)
        from logpool import unanimity_report

        if not unanimity_report(decomp).strictly_unanimous:
            with pytest.raises(NotStrictlyUnanimous):
                certify_openness(decomp, samples=4, seed=0)
            return
    raise AssertionError("expected to find a non-unanimous random instance")


# ---------------------------------------------------------------------------
# Tilt derivatives of the welfare gap
# ---------------------------------------------------------------------------


def test_tilt_gap_derivative_is_minus_covariance_and_matches_fd():
    rng = rng_from(607)
    for _ in range(60):
        m = int(rng.integers(2, 10))
        space = OutcomeSpace(m)
        p = random_dist(rng, space)
        h = ScoreFn(space, rng.standard_normal(m))
        analytic = tilt_gap_derivative(p, h)
        assert analytic == pytest.approx(-cov(p, h.f, p.log_p), abs=1e-12)
        fd = tilt_gap_fd(p, h)
        assert fd == pytest.approx(analytic, abs=1e-6 + 1e-6 * abs(analytic))


@pytest.mark.parametrize("space", [OutcomeSpace(5), OutcomeSpace(4, ("a", "b", "c", "d"))])
def test_tilt_derivatives_reject_a_tilt_on_another_space(space):
    """A tilt of another size used to fail in NumPy broadcasting, one of the
    same size with other labels to compute silently."""
    p = random_dist(rng_from(611), OutcomeSpace(4))
    h = ScoreFn(space, np.linspace(-1.0, 1.0, space.size))
    for derivative in (tilt_gap_fd, tilt_gap_derivative):
        with pytest.raises(SpaceMismatch):
            derivative(p, h)


def test_local_unanimity_audit_weighted_derivatives_cancel():
    rng = rng_from(608)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 5))
        decomp = random_decomposition(rng, m, n)
        tilts = tilt_representation(
            decomp.parent, list(decomp.children), decomp.weights
        )
        derivatives, weighted_sum = local_unanimity_audit(
            decomp.parent, tilts, decomp.weights
        )
        assert derivatives.shape == (n,)
        assert abs(weighted_sum) <= 1e-8


def test_local_unanimity_audit_rejects_unbalanced_tilts():
    rng = rng_from(609)
    space = OutcomeSpace(4)
    p = random_dist(rng, space)
    tilts = [ScoreFn(space, np.ones(4)), ScoreFn(space, np.ones(4))]
    with pytest.raises(TiltsNotCentered):
        local_unanimity_audit(p, tilts, Weights.uniform(2))


def test_uniform_no_gain_identity():
    rng = rng_from(610)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        space = OutcomeSpace(m)
        r = random_dist(rng, space)
        u = uniform(space)
        gap = welfare_gap(r, u)
        assert gap <= 1e-12
        assert gap == pytest.approx(-(kl(r, u) + kl(u, r)), abs=1e-10)
    u = uniform(OutcomeSpace(5))
    assert welfare_gap(u, u) == pytest.approx(0.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_transported_decomposition_keeps_weights_and_count(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 8))
    n = int(rng.integers(2, 5))
    decomp = random_decomposition(rng, m, n)
    target = random_dist(rng, decomp.space)
    moved = transported(decomp, target)
    assert moved.n == decomp.n
    assert np.array_equal(moved.weights.beta, decomp.weights.beta)
    # each child moved by exactly the target/base ratio in log space
    for before, after in zip(decomp.children, moved.children):
        shift = after.log_p - before.log_p
        expected = target.log_p - decomp.parent.log_p
        assert np.abs((shift - expected) - (shift - expected).mean()).max() <= 1e-10


def test_stacked_transport_rows_match_per_child_transport():
    rng = rng_from(612)
    decomp = random_decomposition(rng, 6, 4)
    targets = [random_dist(rng, decomp.space) for _ in range(30)]
    children = np.stack([c.p for c in decomp.children])
    rows = transport_rows(children, decomp.parent.p, np.stack([t.p for t in targets])[:, None, :])
    assert rows.shape == (30, 4, 6)
    for k, target in enumerate(targets):
        moved = transported(decomp, target)
        for i, child in enumerate(decomp.children):
            assert np.array_equal(rows[k, i], moved.children[i].p)
            assert np.array_equal(rows[k, i], transport(child, decomp.parent, target).p)


def test_transport_rows_validates_the_rows_it_makes():
    """A child and target mass of 1e-200 on one outcome put it about 921 nats
    below the rest, which underflows to zero: the producer raises as Dist
    would, naming the first bad row."""
    child, base = np.array([0.5, 0.5, 1e-200]), np.full(3, 1.0 / 3.0)
    targets = np.array([[0.2, 0.3, 0.5], [0.5, 0.5, 1e-200]])
    with pytest.raises(NonPositiveEntry, match="in row 1$"):
        transport_rows(child, base, targets)
