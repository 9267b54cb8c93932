"""Named, seeded verification suites behind the ``verify`` CLI command.

Each check is one function registered with :func:`_check`, which records its
name (prefixed by its suite), default instance count, tolerance, pass
direction and detail text.  The function only computes: it returns its
extremal statistic (a max error, a min margin, a found threshold) as
``value``, ``(value, ok)`` or ``(value, ok, count)``, where ``ok`` is an extra
verdict and ``count`` the instances a fixed catalog checked.  One runner
builds every :class:`CheckResult`: a check passes when ``value`` meets its
tolerance in the registered direction and ``ok`` holds.

A check draws its instances through ``run.rng(*path)``, which is
:func:`~logpool.core.rng_from` at ``(seed, suite_id, check_id, *path)``: the
suite's place in :data:`SUITE_NAMES` and the check's place in registration
order.  So a seed pins every number in the run.  Checks compare library
results against independent re-computations (extended-precision pooling,
closed forms, brute-force searches).

These are runtime smoke batteries sized for seconds, not the exhaustive
test-suite versions; the comparisons are the same, the instance counts are
smaller.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import constructions, factorize, persona, stability
from .constructions import random_decomposition, random_dist, random_family, random_strict_weights
from .core import (
    OutcomeSpace, ScoreFn, Weights, event_indices, expect, kl, make_dist, norm_p,
    require_prob_rows, rng_from, tv, uniform,
)
from .errors import ParamOutOfRange, UnknownSuite
from .pooling import (
    linear_pool, log_pool, log_pool_arrays, log_pool_with_log_z, make_decomposition,
)
from .welfare import (
    covariance_condition, gap_terms, unanimity_report, weighted_gap_sum, welfare_gap,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("pools", "welfare", "constructions", "factorize", "stability", "persona")


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One named check: an extremal measured value against its threshold."""

    name: str
    passed: bool
    value: float
    tolerance: float
    samples: int
    detail: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "samples", int(self.samples))


# ---------------------------------------------------------------------------
# Registration and the runner
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """What a check body is handed: the seed, its instance count and
    tolerance, and ``rng(*path)`` on the check's own stream."""

    seed: int
    samples: int
    tol: float
    ids: tuple[int, int]

    def rng(self, *path: int) -> np.random.Generator:
        return rng_from(self.seed, *self.ids, *path)


class _Check(NamedTuple):
    name: str
    samples: int
    tol: float
    passes: Callable[[float, float], bool]
    detail: str
    body: Callable[[_Run], object]


_PASSES = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}

_CHECKS: dict[str, list[_Check]] = {suite: [] for suite in SUITE_NAMES}


def _check(name: str, samples: int, tol: float, passes: str, detail: str):
    """Register the decorated body as check ``name``, in the suite its prefix
    names.  ``samples`` 0 marks a fixed catalog that no override resizes."""

    def register(body: Callable[[_Run], object]) -> Callable[[_Run], object]:
        check = _Check(name, samples, tol, _PASSES[passes], detail, body)
        _CHECKS[name.split(".")[0]].append(check)
        return body

    return register


def run_suite(
    name: str,
    seed: int,
    samples: int | None = None,
    tolerance: float | None = None,
) -> list[CheckResult]:
    """Run one suite (or ``"all"``) and return its check results.

    ``samples`` (at least 1) sets the random-instance count of every check
    that has one (fixed catalogs keep their size); ``tolerance`` overrides each
    check's default threshold — a blunt instrument, mostly useful for exploring
    how much numerical headroom the implementation has.
    """
    if samples is not None and samples < 1:
        raise ParamOutOfRange(f"samples must be at least 1, got {samples}")
    if name != "all" and name not in _CHECKS:
        known = ", ".join((*SUITE_NAMES, "all"))
        raise UnknownSuite(f"unknown suite {name!r}; expected one of: {known}")
    results = []
    for suite_id, suite in enumerate(SUITE_NAMES):
        if name not in ("all", suite):
            continue
        for check_id, check in enumerate(_CHECKS[suite]):
            n = check.samples if samples is None or check.samples == 0 else samples
            tol = check.tol if tolerance is None else tolerance
            out = check.body(_Run(seed, n, tol, (suite_id, check_id)))
            value, ok, count = (*out, n)[:3] if isinstance(out, tuple) else (out, True, n)
            passed = check.passes(value, tol) and ok
            results.append(CheckResult(check.name, passed, value, tol, count, check.detail))
    return results


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _sizes(
    rng: np.random.Generator, m_lo: int = 2, m_hi: int = 9, n_lo: int = 2, n_hi: int = 7
) -> tuple[int, int]:
    """An outcome count in [m_lo, m_hi), then an agent count in [n_lo, n_hi)."""
    return int(rng.integers(m_lo, m_hi)), int(rng.integers(n_lo, n_hi))


def _longdouble_log_pool(agents, weights: Weights) -> tuple[np.ndarray, float]:
    """The log pool and its log-normalizer, recomputed in long double."""
    logs = np.stack([np.log(a.p.astype(np.longdouble)) for a in agents])
    combo = (weights.beta.astype(np.longdouble)[:, None] * logs).sum(axis=0)
    shift = combo.max()
    w = np.exp(combo - shift)
    return w / w.sum(), float(shift + np.log(w.sum()))


def _tv_vs_longdouble(pooled, oracle: np.ndarray) -> float:
    return float(0.5 * np.abs(pooled.p.astype(np.longdouble) - oracle).sum())


def _longdouble_gap(agent, pool) -> float:
    pa = agent.p.astype(np.longdouble)
    pr = pool.p.astype(np.longdouble)
    la = np.log(pa)
    return float((pr * la).sum() - (pa * la).sum())


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

@_check("pools.log_pool_extended_precision", 200, 1e-12, "<=",
        "max tv between log_pool and an extended-precision recomputation")
def _log_pool_extended(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng))
        pooled = log_pool(agents, weights)
        worst = max(worst, _tv_vs_longdouble(pooled, _longdouble_log_pool(agents, weights)[0]))
    return worst


@_check("pools.linear_pool_extended_precision", 200, 1e-12, "<=",
        "max tv between linear_pool and an extended-precision recomputation")
def _linear_pool_extended(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng))
        pooled = linear_pool(agents, weights)
        stackld = np.stack([a.p.astype(np.longdouble) for a in agents])
        oracle = (weights.beta.astype(np.longdouble)[:, None] * stackld).sum(axis=0)
        oracle = oracle / oracle.sum()
        worst = max(worst, _tv_vs_longdouble(pooled, oracle))
    return worst


@_check("pools.weight_edge_cases", 60, 1e-12, "<=",
        "max tv over one-hot weights, dropped zero weights, identical agents")
def _pool_weight_edges(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng, n_lo=3))
        n = weights.n
        # a one-hot weight vector must return that agent
        j = int(rng.integers(0, n))
        onehot = np.zeros(n)
        onehot[j] = 1.0
        worst = max(worst, tv(log_pool(agents, Weights(onehot)), agents[j]))
        # zero-weight agents must not matter
        beta = weights.beta.copy()
        beta[j] = 0.0
        beta = beta / beta.sum()
        reduced = [a for t, a in enumerate(agents) if t != j]
        rbeta = np.array([b for t, b in enumerate(beta) if t != j])
        worst = max(
            worst,
            tv(log_pool(agents, Weights(beta)), log_pool(reduced, Weights(rbeta))),
        )
        # pooling identical copies returns the copy
        worst = max(worst, tv(log_pool([agents[0]] * n, weights), agents[0]))
    return worst


@_check("pools.log_normalizer", 200, 1e-12, "<=",
        "max error of the log-normalizer against extended precision, "
        "its sign bound, and exact renormalization")
def _log_z(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng))
        pooled, log_z = log_pool_with_log_z(agents, weights)
        worst = max(worst, abs(log_z - _longdouble_log_pool(agents, weights)[1]))
        if log_z > 1e-12:  # the normalizer of a geometric mean cannot exceed 1
            worst = max(worst, log_z)
        combo = sum(b * a.log_p for b, a in zip(weights.beta, agents))
        worst = max(worst, float(abs(np.exp(combo - log_z).sum() - 1.0)))
    return worst


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

@_check("welfare.gap_extended_precision", 200, 1e-12, "<=",
        "max |welfare_gap - extended-precision recomputation|")
def _gap_extended(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        m = int(rng.integers(2, 9))
        agent = random_dist(rng, OutcomeSpace(m))
        pool_d = random_dist(rng, OutcomeSpace(m))
        gap = welfare_gap(agent, pool_d)  # raises if its two forms disagree
        worst = max(worst, abs(gap - _longdouble_gap(agent, pool_d)))
    return worst


@_check("welfare.covariance_equals_mean_shift", 200, 1e-10, "<=",
        "max |covariance criterion - (E_pool[w] - E_agent[w])|")
def _cov_condition(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        m = int(rng.integers(2, 9))
        agent = random_dist(rng, OutcomeSpace(m))
        pool_d = random_dist(rng, OutcomeSpace(m))
        w = ScoreFn(agent.space, rng.standard_normal(m))
        c, verdict = covariance_condition(agent, w, pool_d, tol=1e-9)
        shift = expect(pool_d, w) - expect(agent, w)
        worst = max(worst, abs(c - shift))
        if verdict != (shift >= -1e-9):
            worst = max(worst, 1.0)
    return worst


@_check("welfare.binary_closed_form", 200, 1e-10, "<=",
        "max |welfare_gap - (x - x_i) log(x_i/(1-x_i))| on two outcomes")
def _binary_closed_form(run: _Run):
    space = OutcomeSpace(2)
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        x1, x2 = rng.uniform(0.02, 0.98, 2)
        b = float(rng.uniform(0.1, 0.9))
        a1 = make_dist(space, np.array([x1, 1.0 - x1]))
        a2 = make_dist(space, np.array([x2, 1.0 - x2]))
        pooled = log_pool([a1, a2], Weights(np.array([b, 1.0 - b])))
        x = float(pooled.p[0])
        for agent, xi in ((a1, x1), (a2, x2)):
            gap = welfare_gap(agent, pooled)
            worst = max(worst, abs(gap - constructions.binary_gap_closed_form(xi, x)))
    return worst


@_check("welfare.binary_census", 21, 1e-9, "<=",
        "max over the census of min(gap1, gap2) — two-outcome agents "
        "never both strictly gain; pooled mass stays between the agents'")
def _binary_census(run: _Run):
    space = OutcomeSpace(2)
    grid = np.arange(1, run.samples + 1) / (run.samples + 1)
    betas = np.arange(1, 10) / 10.0
    i1, i2, b = (a.reshape(-1) for a in np.meshgrid(
        np.arange(run.samples), np.arange(run.samples), betas, indexing="ij"
    ))
    x = np.stack([make_dist(space, np.array([g, 1.0 - g])).p for g in grid])
    agents = np.stack([x[i1], x[i2]], axis=1)
    pooled = log_pool_arrays(np.log(agents), np.stack([b, 1.0 - b], axis=1))[0]
    require_prob_rows(pooled)
    gaps = gap_terms(agents, pooled[:, None, :])[0]
    x1, x2, mass = grid[i1], grid[i2], pooled[:, 0]
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    between_ok = bool(((lo < mass) & (mass < hi))[x1 != x2].all())
    return gaps.min(axis=1).max(), between_ok


@_check("welfare.uniform_reference_no_gain", 200, 1e-10, "<=",
        "uniform's gap against any reference is <= 0 and equals "
        "-(KL(r,u)+KL(u,r)); value is the max identity error")
def _uniform_no_gain(run: _Run):
    worst_err = 0.0
    worst_gap = -np.inf
    for i in range(run.samples):
        rng = run.rng(i)
        r = random_dist(rng, OutcomeSpace(int(rng.integers(2, 13))))
        gap = stability.uniform_no_gain(r)
        u = uniform(r.space)
        worst_err = max(worst_err, abs(gap + kl(r, u) + kl(u, r)))
        worst_gap = max(worst_gap, gap)
    return worst_err, worst_gap <= 0.0


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@_check("constructions.cyclic_uniform_pool_and_margins", 0, 1e-9, "<=",
        "pool exactly uniform; every agent's welfare rises by C(1/n - eps)")
def _cyclic(run: _Run):
    worst = 0.0
    cases = 0
    for n in (2, 3, 5, 8):
        for eps_frac in (0.3, 0.08, 0.01):
            eps = eps_frac / n
            inst = constructions.cyclic_welfare_instance(n, eps, C=2.0)
            pooled = log_pool(list(inst.agents), inst.weights)
            worst = max(worst, tv(pooled, uniform(pooled.space)))
            margin = 2.0 * (1.0 / n - eps)
            for agent, w in zip(inst.agents, inst.welfares):
                gain = expect(pooled, w) - expect(agent, w)
                worst = max(worst, abs(gain - margin))
                c, verdict = covariance_condition(agent, w, pooled, tol=1e-9)
                if not verdict:
                    worst = max(worst, 1.0)
            cases += 1
    return worst, True, cases


@_check("constructions.unanimity_threshold_exists", 0, 1e-9, ">",
        "smallest welfare gap at the discovered peakedness threshold "
        "(must be strictly positive)")
def _unanimity_threshold(run: _Run):
    worst_min_gap = np.inf
    cases = 0
    for n in (2, 3, 5):
        raw_up = np.arange(1, n + 1, dtype=float)
        for weights in (
            None,
            Weights(raw_up / raw_up.sum()),
            Weights(raw_up[::-1] / raw_up.sum()),
        ):
            eps = constructions.find_epsilon_for_unanimity(n, weights)
            decomp = constructions.analytic_unanimity_instance(n, eps, weights)
            worst_min_gap = min(worst_min_gap, unanimity_report(decomp).min_gap)
            cases += 1
    return worst_min_gap, True, cases


@_check("constructions.unanimity_pool_closed_form", 60, 1e-12, "<=",
        "max tv between the pooled distribution and its closed form "
        "eps^((n+1) - n*beta_i) on private outcomes")
def _unanimity_pool_formula(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        n = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.01, 0.24))
        weights = random_strict_weights(rng, n)
        decomp = constructions.analytic_unanimity_instance(n, eps, weights)
        e = np.longdouble(eps)
        raw = np.empty(n + 1, dtype=np.longdouble)
        raw[0] = (1.0 - e - (n - 1) * e ** (n + 1)) ** np.longdouble(1.0)
        for j in range(n):
            c_j = (n + 1) - n * np.longdouble(weights.beta[j])
            raw[j + 1] = e**c_j
        oracle = raw / raw.sum()
        worst = max(worst, _tv_vs_longdouble(decomp.parent, oracle))
    return worst


@_check("constructions.peaked_sum_negative_with_slope", 80, 0.05, "<=",
        "a negative weighted gap sum is reached on the grid for every "
        "strict weight vector; log-normalizer slope matches 1 - max(beta)")
def _peaked_negative(run: _Run):
    worst_slope_err = 0.0
    all_found = True
    cases = 0
    for n in (2, 4):
        for i in range(max(10, run.samples // 8)):
            weights = random_strict_weights(run.rng(n, i), n)
            found = None
            for eps in constructions.EPSILON_GRID:
                if eps >= 0.5:
                    continue
                agents = constructions.peaked_incompatible_family(n, eps)
                s = weighted_gap_sum(make_decomposition(agents, weights, "log"))
                if s < 0.0:
                    found = eps
                    break
            if found is None:
                all_found = False
                continue
            # the slope claim is asymptotic, so regress on the small-eps
            # tail of the grid (1e-6 down to 1e-10)
            eps_tail = [e for e in constructions.EPSILON_GRID if e <= 1e-6]
            log_zs = []
            for eps in eps_tail:
                agents = constructions.peaked_incompatible_family(n, eps)
                _, log_z = log_pool_with_log_z(agents, weights)
                log_zs.append(log_z)
            slope = float(np.polyfit(np.log(eps_tail), log_zs, 1)[0])
            expected = 1.0 - float(weights.beta.max())
            worst_slope_err = max(worst_slope_err, abs(slope - expected) / expected)
            cases += 1
    return worst_slope_err, all_found, cases


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

@_check("factorize.pairwise_distinct_reconstructs", 80, 1e-12, "<=",
        "children re-pool to the parent exactly; all pairwise tv "
        "distances exceed the distinctness floor")
def _factor_distinct(run: _Run):
    worst_tv = 0.0
    worst_dist = np.inf
    for i in range(run.samples):
        rng = run.rng(i)
        m = int(rng.integers(3, 9))
        n = int(rng.integers(2, 6))
        parent = random_dist(rng, OutcomeSpace(m))
        weights = random_strict_weights(rng, n)
        decomp = factorize.factor_pairwise_distinct(parent, weights, seed=i)
        worst_tv = max(worst_tv, tv(log_pool(list(decomp.children), weights), parent))
        family = [parent, *decomp.children]
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                worst_dist = min(worst_dist, tv(family[a], family[b]))
    return worst_tv, worst_dist > factorize.DISTINCTNESS_TV


@_check("factorize.fixed_children_reconstructs", 60, 1e-12, "<=",
        "prescribed children pass through bit-identical and the "
        "family still re-pools to the parent")
def _factor_fixed(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        k = int(rng.integers(1, 3))
        n = k + 2 + int(rng.integers(0, 3))
        m = int(rng.integers(3, 9))
        parent = random_dist(rng, OutcomeSpace(m))
        fixed = [random_dist(rng, OutcomeSpace(m)) for _ in range(k)]
        weights = random_strict_weights(rng, n)
        decomp = factorize.factor_with_fixed(parent, fixed, weights, seed=i)
        for f, c in zip(fixed, decomp.children):
            if not np.array_equal(f.p, c.p):
                worst = max(worst, 1.0)
        worst = max(worst, tv(log_pool(list(decomp.children), weights), parent))
    return worst


@_check("factorize.split_leaves_pool_unchanged", 80, 1e-10, "<=",
        "max pool drift under compatible splits, plus clone-gap "
        "agreement for zero tilts")
def _split_invariance(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng, m_lo=3, n_hi=5))
        decomp = make_decomposition(agents, weights, "log")
        idx = int(rng.integers(0, weights.n))
        alpha = float(rng.uniform(0.1, 0.9))
        g = ScoreFn(decomp.space, 0.7 * rng.standard_normal(decomp.space.size))
        _, _, delta = factorize.split_invariance_check(decomp, idx, alpha, g)
        worst = max(worst, delta)
        # a zero-tilt split produces two clones with the original's welfare gap
        zero = ScoreFn(decomp.space, np.zeros(decomp.space.size))
        first, second, delta0 = factorize.split_invariance_check(
            decomp, idx, alpha, zero
        )
        worst = max(worst, delta0)
        base_gap = welfare_gap(agents[idx], decomp.parent)
        for clone in (first, second):
            worst = max(worst, abs(welfare_gap(clone, decomp.parent) - base_gap))
    return worst


@_check("factorize.depressed_subagent_loses", 0, 1e-9, ">",
        "the sharpened pool benefits the parent, sharpening helps "
        "monotonically, and some depression strength makes a subagent lose; "
        "value is the first losing strength")
def _parent_benefit(run: _Run):
    p1 = make_dist(OutcomeSpace(3), np.array([0.5, 0.3, 0.2]))
    sweep = factorize.parent_benefit_sweep(p1, t=2.0, alpha=0.5, o_star=0)
    ts = (1.0 + 1e-9, 1.5, 2.0, 3.0)
    scores = []
    for t in ts:
        rep = factorize.parent_benefit_counterexample(p1, t, 0.5, 0, lam=1.0)
        scores.append(expect(rep.pool, p1.log_p))
    monotone = all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
    found = sweep.first_losing_lambda is not None
    ok = (sweep.parent_gap > run.tol) and found and monotone
    return (sweep.first_losing_lambda if found else -1.0), ok, len(sweep.rows)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

@_check("stability.transport_pools_to_target", 120, 1e-10, "<=",
        "transported children re-pool to the target; transporting "
        "to the same base is bit-exact identity")
def _transport(run: _Run):
    worst = 0.0
    identity_ok = True
    for i in range(run.samples):
        rng = run.rng(i)
        agents, weights = random_family(rng, *_sizes(rng, m_lo=3))
        decomp = make_decomposition(agents, weights, "log")
        target = random_dist(rng, decomp.space)
        moved = stability.transport_decomposition(decomp, target)
        worst = max(worst, tv(log_pool(list(moved.children), weights), target))
        kept = stability.transport(agents[0], decomp.parent, decomp.parent)
        if not np.array_equal(kept.p, agents[0].p):
            identity_ok = False
    return worst, identity_ok


@_check("stability.unanimity_survives_in_a_ball", 0, 0.0, ">",
        "smallest certified tv radius around a strictly unanimous "
        "instance (must be positive)")
def _openness(run: _Run):
    min_radius = np.inf
    cases = 0
    for n in (2, 3):
        eps = constructions.find_epsilon_for_unanimity(n)
        decomp = constructions.analytic_unanimity_instance(n, eps)
        cert = stability.certify_openness(decomp, samples=16, seed=run.seed)
        min_radius = min(min_radius, cert.radius)
        cases += 1
    return min_radius, True, cases


@_check("stability.tilt_derivative_matches_finite_difference", 120, 1e-6, "<=",
        "max relative error between -Cov(h, log p) and a central "
        "finite difference of the tilted gap")
def _tilt_fd(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        for attempt in range(50):
            rng = run.rng(i, attempt)
            m = int(rng.integers(2, 9))
            p = random_dist(rng, OutcomeSpace(m))
            h = ScoreFn(p.space, rng.standard_normal(m))
            analytic = stability.tilt_gap_derivative(p, h)
            if abs(analytic) >= 1e-3:
                break
        fd = stability.tilt_gap_fd(p, h)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


@_check("stability.weighted_tilt_derivatives_cancel", 100, 1e-8, "<=",
        "max |sum_i beta_i d(gap_i)| over families of tilts whose "
        "weighted sum vanishes pointwise")
def _local_audit(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 6))
        p = random_dist(rng, OutcomeSpace(m))
        weights = random_strict_weights(rng, n)
        hs = [rng.standard_normal(m) for _ in range(n - 1)]
        closing = -sum(b * h for b, h in zip(weights.beta[:-1], hs))
        hs.append(closing / weights.beta[-1])
        tilts = [ScoreFn(p.space, h) for h in hs]
        _, weighted = stability.local_unanimity_audit(p, tilts, weights)
        worst = max(worst, abs(weighted))
    return worst


# ---------------------------------------------------------------------------
# persona
# ---------------------------------------------------------------------------

@_check("persona.linearization_residual_is_second_order", 80, 1.9, ">=",
        "min log-log slope of the linearization residual (quadratic "
        "decay means slope about 2)")
def _residual_slope(run: _Run):
    worst = np.inf
    for i in range(run.samples):
        for attempt in range(50):
            rng = run.rng(i, attempt)
            decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
            d = rng.standard_normal(decomp.n)
            d -= d.mean()
            predicted, residual_norm_fn = persona.first_order_delta_l(
                persona.centered_profiles(decomp), d
            )
            if norm_p(decomp.parent, predicted.f) > 1e-8:
                break
        t1, t2 = 1e-2, 1e-3
        r1, r2 = residual_norm_fn(t1), residual_norm_fn(t2)
        slope = (np.log(r1) - np.log(r2)) / (np.log(t1) - np.log(t2))
        worst = min(worst, slope)
    return worst


@_check("persona.compensation_inequality_slack", 80, -1e-9, ">=",
        "min slack of the compensation inequality over random "
        "small zero-sum weight changes")
def _compensation_slack(run: _Run):
    worst = np.inf
    for i in range(run.samples):
        for attempt in range(50):
            rng = run.rng(i, attempt)
            decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
            d = rng.standard_normal(decomp.n)
            d -= d.mean()
            d *= 1e-3 / max(1e-12, float(np.abs(d).max()))
            h_index = int(np.argmax(d))
            if d[h_index] > 0 and np.all(decomp.weights.beta + d > 0):
                break
        shifted = log_pool(list(decomp.children), Weights(decomp.weights.beta + d))
        realized = norm_p(decomp.parent, shifted.log_p - decomp.parent.log_p)
        rep = persona.compensation_bound(
            decomp, h_index, float(d[h_index]), realized * 1.25 + 1e-9, d
        )
        worst = min(worst, rep.slack)
    return worst


@_check("persona.counteragent_weight_forced_up", 0, 0.0, ">",
        "on the engineered instance the single counteracting agent's "
        "weight increase has a strictly positive lower bound, and the "
        "realized increase meets it")
def _counteragent_bound(run: _Run):
    decomp, h_index, dbeta = constructions.single_counteragent_instance(delta=0.02)
    rep = persona.compensation_bound(decomp, h_index, 0.02, epsilon=0.005, dbeta=dbeta)
    bound = rep.counter_lower_bound if rep.counter_lower_bound is not None else -1.0
    ok = (
        rep.single_anti_aligned
        and rep.aligned_not_downgraded
        and float(dbeta[rep.counter_index]) >= bound - 1e-12
    )
    return bound, ok, 1


@_check("persona.suppression_never_beaten", 40, 1e-9, "<=",
        "max excess of any brute-force in-span direction over the "
        "claimed optimum (also checks the plan's own first-order effect)")
def _suppression_optimal(run: _Run):
    worst = -np.inf
    budget = 0.05
    directions = 2000
    for i in range(run.samples):
        rng = run.rng(i)
        decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
        profiles = persona.centered_profiles(decomp)
        m = decomp.space.size
        k = int(rng.integers(1, m - 1))
        event = tuple(rng.choice(m, size=k, replace=False))
        plan = persona.optimal_suppression(profiles, event, budget)
        exact, linear = persona.event_first_order(decomp.parent, event, plan.delta_l)
        worst = max(worst, abs(linear + plan.achieved))
        v_mat = np.stack([prof.v for prof in profiles])
        coeffs = rng.standard_normal((directions, len(profiles)))
        cand = coeffs @ v_mat
        p = decomp.parent.p
        norms2 = (cand**2 * p).sum(axis=1)
        keep = norms2 > 1e-20
        cand = cand[keep] * (budget / np.sqrt(norms2[keep]))[:, None]
        g = np.zeros(m)
        g[list(event_indices(decomp.space, event))] = 1.0
        g -= g @ p
        reductions = -(cand * g * p).sum(axis=1)
        worst = max(worst, float(reductions.max()) - plan.achieved)
    return worst


@_check("persona.projection_gain_pythagoras", 80, 1e-10, "<=",
        "max disagreement between the direct and incremental squared "
        "projection norms; re-adding a spanned profile gains nothing")
def _projection_gain(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
        profiles = persona.centered_profiles(decomp)
        m = decomp.space.size
        raw = rng.standard_normal(m)
        w = persona.LogProfile(decomp.parent, raw - expect(decomp.parent, raw))
        k = int(rng.integers(1, m - 1))
        event = tuple(rng.choice(m, size=k, replace=False))
        rep = persona.projection_gain(profiles, w, event, epsilon=0.05)
        worst = max(worst, abs(rep.sq_enlarged_direct - rep.sq_enlarged_pythagoras))
        if rep.gain < -1e-12:
            worst = max(worst, 1.0)
        member = persona.projection_gain(profiles, profiles[0], event, epsilon=0.05)
        if not member.w_in_span or member.gain != 0.0:
            worst = max(worst, 1.0)
    return worst


@_check("persona.kl_matches_half_variance", 200, 0.1, "<=",
        "max |KL / (Var/2) - 1| for log-deviations of weighted norm "
        "at most 0.01")
def _kl_budget(run: _Run):
    worst = 0.0
    for i in range(run.samples):
        rng = run.rng(i)
        m = int(rng.integers(2, 13))
        p = random_dist(rng, OutcomeSpace(m))
        raw = rng.standard_normal(m)
        scale = float(rng.uniform(0.1, 1.0)) * 0.01
        current = norm_p(p, raw - expect(p, raw))
        delta_l = ScoreFn(p.space, raw * (scale / max(current, 1e-12)))
        kl_value, half_var = persona.kl_budget(p, delta_l)
        worst = max(worst, abs(kl_value / half_var - 1.0))
    return worst
