"""The stacked factorization, split and tilt kernels against the object API:
every row of a kernel call equals the one-instance public call bit for bit,
retries and errors included."""

import numpy as np
import pytest

from logpool import (
    Dist,
    DistinctnessFailure,
    OutcomeSpace,
    ScoreFn,
    TiltsNotCentered,
    Weights,
    factor_pairwise_distinct,
    factor_with_fixed,
    local_unanimity_audit,
    make_decomposition,
    rng_from,
    split_invariance_check,
    tilt_gap_derivative,
    tilt_gap_fd,
)
from logpool import factorize, stability
from logpool.constructions import random_beta, random_probs

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

    def counted(seed, attempt):
        calls.append((seed, attempt))
        return rng_from(seed, attempt)

    monkeypatch.setattr(factorize, "rng_from", counted)
    parents, betas = _group(701)
    seeds = list(range(100, 100 + B))
    draws = np.stack([rng_from(s, 0).standard_normal((N - 1, M)) for s in seeds])
    children = factorize._distinct_children(parents, betas, 0, seeds, draws)
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
        factorize._distinct_children(parents, betas, 0, list(range(B)), draws)
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
