"""Pool-preserving transport, openness certification, and the first-order
analysis of welfare gaps under exponential tilts."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_decomposition, random_dist, transported
from _oracles import mp_transported_gaps
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
    rng_from,
    tilt_gap_derivative,
    tilt_gap_fd,
    tilt_representation,
    transport,
    tv,
    unanimity_report,
    uniform,
    kl,
    welfare_gap,
)
from logpool import stability
from logpool.stability import transport_rows
from logpool.suites import run_suite
from logpool.welfare import UNANIMITY_TOL


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
# Openness certification
# ---------------------------------------------------------------------------


def _unanimous(n):
    return analytic_unanimity_instance(n, find_epsilon_for_unanimity(n))


def test_certify_openness_on_a_strictly_unanimous_instance():
    cert = certify_openness(_unanimous(3), samples=16, seed=0)
    assert cert.log_ratio_radius > 0.0 and cert.radius > 0.0
    assert cert.min_gap_at_boundary > 0.0
    assert cert.samples == 16 and cert.seed == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_gap_bound_holds_at_every_vertex_in_extended_precision(n):
    """g_i(T) ≥ g_i(P) − 2ρ(osc(log C_i) + 1) for T = P·e^u/Z at all 2^(n+1)
    vertices u ∈ {−ρ, ρ}^m, at ρ*, 10ρ* and 100ρ*, with every gap computed
    to 50 digits; at ρ* itself every gap stays above ``UNANIMITY_TOL``."""
    decomp = _unanimous(n)
    rho = certify_openness(decomp, samples=1).log_ratio_radius
    children = np.stack([c.p for c in decomp.children])
    before = np.array(mp_transported_gaps(children, decomp.parent.p, np.zeros(n + 1)))
    osc = np.log(children).max(axis=-1) - np.log(children).min(axis=-1)
    assert rho == pytest.approx(((before - UNANIMITY_TOL) / (2.0 * (osc + 1.0))).min(), rel=1e-12)
    for scale in (1.0, 10.0, 100.0):
        for signs in itertools.product((-1.0, 1.0), repeat=n + 1):
            after = mp_transported_gaps(children, decomp.parent.p, scale * rho * np.array(signs))
            bound = before - 2.0 * scale * rho * (osc + 1.0)
            assert (np.array(after) >= bound).all(), (scale, signs, after, bound)
            if scale == 1.0:
                assert min(after) > UNANIMITY_TOL, (signs, after)


def test_probe_at_tv_radius_hits_the_radius():
    """Targets exactly at the certified tv radius stay inside the proved
    log-ratio ball, and so stay strictly unanimous after transport."""
    decomp = _unanimous(4)
    cert = certify_openness(decomp, samples=4, seed=0)
    rng = rng_from(604)
    p = decomp.parent.p
    for _ in range(20):
        d = rng.standard_normal(p.size)
        d -= d.mean()
        target = Dist(decomp.space, p + d * (2.0 * cert.radius / np.abs(d).sum()))
        assert tv(decomp.parent, target) == pytest.approx(cert.radius, rel=1e-6)
        assert np.abs(np.log(target.p / p)).max() <= cert.log_ratio_radius
        assert unanimity_report(transported(decomp, target)).strictly_unanimous


def test_certified_radii_do_not_depend_on_samples_or_seed():
    decomp = _unanimous(2)
    first = certify_openness(decomp, samples=4, seed=7)
    for samples, seed in ((24, 7), (4, 8), (1, 0)):
        cert = certify_openness(decomp, samples=samples, seed=seed)
        assert cert.radius == first.radius
        assert cert.log_ratio_radius == first.log_ratio_radius


def test_boundary_gap_weakly_decreases_with_more_samples():
    """A run with more samples extends the vertex set of a run with fewer."""
    decomp = _unanimous(2)
    gaps = [certify_openness(decomp, samples=s, seed=7).min_gap_at_boundary for s in (1, 4, 24, 96)]
    assert gaps == sorted(gaps, reverse=True)


def test_certify_openness_is_deterministic():
    decomp = _unanimous(2)
    a = certify_openness(decomp, samples=8, seed=3)
    b = certify_openness(decomp, samples=8, seed=3)
    assert (a.radius, a.log_ratio_radius) == (b.radius, b.log_ratio_radius)
    assert a.min_gap_at_boundary == b.min_gap_at_boundary


@pytest.mark.parametrize("samples", [0, -1, 2.5])
def test_certify_openness_needs_at_least_one_probe(samples):
    """With no probe every bisection step used to pass vacuously (radius
    0.49999809, boundary gap inf); a negative count raised numpy's bare
    ValueError and a fractional one a bare TypeError from ``range``."""
    with pytest.raises(ParamOutOfRange, match="at least one probe"):
        certify_openness(_unanimous(2), samples=samples, seed=0)


def _scaled_radius(monkeypatch, scale):
    """Make every certificate use ``scale`` times the proved radius."""
    radius = stability._log_ratio_radius
    monkeypatch.setattr(stability, "_log_ratio_radius", lambda *a: scale * radius(*a))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_vertex_cross_check_fails_at_a_hundred_times_the_radius(n, monkeypatch):
    """The 16 vertex probes of a ball 100 times the proved one lose strict
    unanimity at every seed tried, so the cross-check can fail."""
    decomp = _unanimous(n)
    _scaled_radius(monkeypatch, 100.0)
    for seed in range(20):
        with pytest.raises(NotFound, match="lost strict unanimity"):
            certify_openness(decomp, samples=16, seed=seed)


def test_the_openness_check_fails_at_a_hundred_times_the_radius(monkeypatch):
    (check,) = [r for r in run_suite("stability", 42) if r.name.endswith("in_a_ball")]
    assert check.passed
    _scaled_radius(monkeypatch, 100.0)
    (check,) = [r for r in run_suite("stability", 42) if r.name.endswith("in_a_ball")]
    assert not check.passed


def test_a_vertex_probe_that_breaks_the_bound_raises_not_found(monkeypatch):
    """The error names the radius that was probed and the failing gap."""
    decomp = _unanimous(2)
    rho = certify_openness(decomp, samples=1).log_ratio_radius
    _scaled_radius(monkeypatch, 100.0)
    with pytest.raises(NotFound) as info:
        certify_openness(decomp, samples=16, seed=0)
    message = str(info.value)
    assert f"proved log-ratio ball of radius {100.0 * rho!r}" in message
    gap = float(re.search(r"its smallest gap is (\S+)$", message).group(1))
    assert gap <= UNANIMITY_TOL


def test_certify_openness_requires_strict_unanimity():
    rng = rng_from(606)
    # generic random decompositions essentially never have all gaps positive
    for _ in range(10):
        decomp = random_decomposition(rng, 5, 3)
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
