"""Named, seeded verification suites behind the ``verify`` CLI command.

Each check is one function registered with :func:`_check`, which records its
name (prefixed by its suite), default instance count, tolerance, pass
direction, detail text and the ``[lo, hi)`` ranges its instance sizes are
drawn from.  The function only computes: it returns its extremal statistic (a
max error, a min margin, a found threshold) as ``value``, ``(value, ok)`` or
``(value, ok, count)``, where ``ok`` is an extra verdict and ``count`` the
instances a fixed catalog checked.  One runner builds every
:class:`CheckResult`: a check passes when ``value`` meets its tolerance in the
registered direction and ``ok`` holds.

A randomized check draws all its instances from one stream, ``run.rng``,
which is :func:`~logpool.core.rng_from` at ``(seed, suite_id, check_id)``: the
suite's place in :data:`SUITE_NAMES` and the check's place in registration
order, so appending a check leaves every other check's draws alone.
``run.groups()`` draws every instance's sizes, one generator call per
registered range, and groups the instances by them in first-seen order; each
group then draws its arrays with one generator call per draw, (B, ...), and
every check, ``persona``'s included, scores it with one call of each stacked
kernel.  Nothing is redrawn: an instance is one row of its group's draws, so
a seed pins every number in the run, though an instance can only be rebuilt
by replaying its check's stream.  Checks compare
library results against independent re-computations (extended-precision
pooling, closed forms, brute-force searches).

These are runtime smoke batteries sized for seconds, not the exhaustive
test-suite versions; the comparisons are the same, the instance counts are
smaller.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import constructions, factorize, persona, stability
from .constructions import random_beta, random_probs
from .core import (
    VALUE_TOL, Dist, OutcomeSpace, Weights, expect, make_dist, normalize_rows, rng_from,
    _combine, _integer, _tv_rows,
)
from .errors import ParamOutOfRange, UnknownSuite
from .pooling import linear_pool_arrays, log_pool_arrays
from .welfare import UNANIMITY_TOL, covariance_terms, gap_terms, unanimity_report

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
    """What a check body is handed: its instance count, tolerance and size
    ranges, and ``rng``, the check's one stream (None on a fixed catalog),
    which ``groups()`` and every per-group draw take from."""

    samples: int
    tol: float
    rng: np.random.Generator | None
    sizes: tuple[tuple[int, int], ...]

    def groups(self) -> list[tuple[tuple[int, ...], int]]:
        """Every instance's sizes, one ``integers(lo, hi)`` call of all the
        instances per registered range, in order; the instances grouped by
        sizes in first-seen order, as ``(sizes, count)`` pairs."""
        drawn = [self.rng.integers(lo, hi, self.samples).tolist() for lo, hi in self.sizes]
        return list(Counter(zip(*drawn)).items())


class _Check(NamedTuple):
    name: str
    samples: int
    tol: float
    passes: Callable[[float, float], bool]
    detail: str
    sizes: tuple[tuple[int, int], ...]
    body: Callable[[_Run], object]


_PASSES = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}

_CHECKS: dict[str, list[_Check]] = {suite: [] for suite in SUITE_NAMES}


def _check(name: str, samples: int, tol: float, passes: str, detail: str, *sizes):
    """Register the decorated body as check ``name``, in the suite its prefix
    names.  ``samples`` 0 marks a fixed catalog that no override resizes;
    each of ``sizes`` is a ``[lo, hi)`` range an instance draws a size from,
    in order (``run.groups``)."""

    def register(body: Callable[[_Run], object]) -> Callable[[_Run], object]:
        check = _Check(name, samples, tol, _PASSES[passes], detail, sizes, body)
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
    that has one (fixed catalogs keep their size); ``tolerance`` (finite)
    overrides each check's default threshold — a blunt instrument, mostly
    useful for exploring how much numerical headroom the implementation has.
    """
    if samples is not None:
        samples = _integer(samples, "samples")
        if samples < 1:
            raise ParamOutOfRange(f"samples must be at least 1, got {samples}")
    if tolerance is not None and not np.isfinite(tolerance):
        raise ParamOutOfRange(f"tolerance must be finite, got {tolerance}")
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
            rng = rng_from(seed, suite_id, check_id) if check.samples else None
            out = check.body(_Run(n, tol, rng, check.sizes))
            value, ok, count = (*out, n)[:3] if isinstance(out, tuple) else (out, True, n)
            passed = check.passes(value, tol) and ok
            results.append(CheckResult(check.name, passed, value, tol, count, check.detail))
    return results


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _worst(worst: float, *values: np.ndarray) -> float:
    return max(worst, *(float(v.max()) for v in values))


def _longdouble_log_pool(agents: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked log pools and their log-normalizers, recomputed in long double."""
    logs = np.log(agents.astype(np.longdouble))
    combo = (beta.astype(np.longdouble)[..., None] * logs).sum(axis=-2)
    shift = combo.max(axis=-1, keepdims=True)
    w = np.exp(combo - shift)
    total = w.sum(axis=-1, keepdims=True)
    return w / total, (shift + np.log(total))[..., 0].astype(float)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

@_check("pools.log_pool_extended_precision", 200, 1e-12, "<=",
        "max tv between log_pool and an extended-precision recomputation", (2, 9), (2, 7))
def _log_pool_extended(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        pooled = log_pool_arrays(np.log(agents), beta)[0]
        worst = _worst(worst, _tv_rows(pooled, _longdouble_log_pool(agents, beta)[0]))
    return worst


@_check("pools.linear_pool_extended_precision", 200, 1e-12, "<=",
        "max tv between linear_pool and an extended-precision recomputation", (2, 9), (2, 7))
def _linear_pool_extended(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        pooled = linear_pool_arrays(agents, beta)
        oracle = (beta.astype(np.longdouble)[..., None] * agents.astype(np.longdouble)).sum(axis=-2)
        worst = _worst(worst, _tv_rows(pooled, oracle / oracle.sum(axis=-1, keepdims=True)))
    return worst


@_check("pools.weight_edge_cases", 60, 1e-12, "<=",
        "max tv over one-hot weights, dropped zero weights, identical agents", (2, 9), (3, 7))
def _pool_weight_edges(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        logs, j, rows = np.log(agents), run.rng.integers(0, n, B), np.arange(B)
        # a one-hot weight vector must return that agent
        onehot = _tv_rows(log_pool_arrays(logs, np.eye(n)[j])[0], agents[rows, j])
        # zero-weight agents must not matter
        zeroed = beta.copy()
        zeroed[rows, j] = 0.0
        zeroed = zeroed / zeroed.sum(axis=-1, keepdims=True)
        keep = np.arange(n) != j[:, None]
        reduced = logs[keep].reshape(B, n - 1, -1), zeroed[keep].reshape(B, n - 1)
        dropped = _tv_rows(log_pool_arrays(logs, zeroed)[0], log_pool_arrays(*reduced)[0])
        # pooling identical copies returns the copy
        copies = _tv_rows(log_pool_arrays(logs[:, [0] * n], beta)[0], agents[:, 0])
        worst = _worst(worst, onehot, dropped, copies)
    return worst


@_check("pools.log_normalizer", 200, 1e-12, "<=",
        "max error of the log-normalizer against extended precision, "
        "its sign bound, and exact renormalization", (2, 9), (2, 7))
def _log_z(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        logs = np.log(agents)
        log_z = log_pool_arrays(logs, beta)[1]
        combo = (beta[..., None] * logs).sum(axis=-2)
        worst = _worst(
            worst,
            np.abs(log_z - _longdouble_log_pool(agents, beta)[1]),
            # the normalizer of a geometric mean cannot exceed 1
            np.where(log_z > 1e-12, log_z, 0.0),
            np.abs(np.exp(combo - log_z[:, None]).sum(axis=-1) - 1.0),
        )
    return worst


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

@_check("welfare.gap_extended_precision", 200, 1e-12, "<=",
        "max |welfare_gap - extended-precision recomputation|", (2, 9))
def _gap_extended(run: _Run):
    worst = 0.0
    for (m,), B in run.groups():
        agent, pool = random_probs(run.rng, m, 2, (B,)).swapaxes(0, 1)
        gaps = gap_terms(agent, pool)[0]  # raises if its two forms disagree
        pa, pr = agent.astype(np.longdouble), pool.astype(np.longdouble)
        la = np.log(pa)
        oracle = ((pr * la).sum(axis=-1) - (pa * la).sum(axis=-1)).astype(float)
        worst = _worst(worst, np.abs(gaps - oracle))
    return worst


@_check("welfare.covariance_equals_mean_shift", 200, 1e-10, "<=",
        "max |covariance criterion - (E_pool[w] - E_agent[w])|", (2, 9))
def _cov_condition(run: _Run):
    worst, signs_agree = 0.0, True
    for (m,), B in run.groups():
        agent, pool = random_probs(run.rng, m, 2, (B,)).swapaxes(0, 1)
        w = run.rng.standard_normal((B, m))
        c = covariance_terms(agent, w, pool)
        shift = (pool * w).sum(axis=-1) - (agent * w).sum(axis=-1)
        worst = _worst(worst, np.abs(c - shift))
        signs_agree = signs_agree and bool(((c >= -1e-9) == (shift >= -1e-9)).all())
    return worst, signs_agree


@_check("welfare.binary_closed_form", 200, 1e-10, "<=",
        "max |welfare_gap - (x - x_i) log(x_i/(1-x_i))| on two outcomes")
def _binary_closed_form(run: _Run):
    x = run.rng.uniform(0.02, 0.98, (run.samples, 2))
    b = run.rng.uniform(0.1, 0.9, run.samples)
    agents = normalize_rows(np.stack([x, 1.0 - x], axis=-1))
    pooled = log_pool_arrays(np.log(agents), np.stack([b, 1.0 - b], axis=-1))[0]
    gaps = gap_terms(agents, pooled[:, None, :])[0]
    return _worst(0.0, np.abs(gaps - constructions.binary_gap_closed_form(x, pooled[:, :1])))


@_check("welfare.binary_census", 21, 1e-9, "<=",
        "max over the census of min(gap1, gap2) — two-outcome agents "
        "never both strictly gain; pooled mass stays between the agents'")
def _binary_census(run: _Run):
    grid = np.arange(1, run.samples + 1) / (run.samples + 1)
    betas = np.arange(1, 10) / 10.0
    i1, i2, b = (a.reshape(-1) for a in np.meshgrid(
        np.arange(run.samples), np.arange(run.samples), betas, indexing="ij"
    ))
    x = normalize_rows(np.stack([grid, 1.0 - grid], axis=1))
    agents = np.stack([x[i1], x[i2]], axis=1)
    pooled = log_pool_arrays(np.log(agents), np.stack([b, 1.0 - b], axis=1))[0]
    gaps = gap_terms(agents, pooled[:, None, :])[0]
    x1, x2, mass = grid[i1], grid[i2], pooled[:, 0]
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    between_ok = bool(((lo < mass) & (mass < hi))[x1 != x2].all())
    return gaps.min(axis=1).max(), between_ok


@_check("welfare.uniform_reference_no_gain", 200, 1e-10, "<=",
        "uniform's gap against any reference is <= 0 and equals "
        "-(KL(r,u)+KL(u,r)); value is the max identity error", (2, 13))
def _uniform_no_gain(run: _Run):
    worst_err, worst_gap = 0.0, -np.inf
    for (m,), B in run.groups():
        r = random_probs(run.rng, m, batch=(B,))
        u = np.full_like(r, 1.0 / r.shape[-1])
        gap = gap_terms(r, u)[0]  # each r's welfare gap against the uniform pool
        log_r, log_u = np.log(r), np.log(u)
        kl_ru, kl_ur = (r * (log_r - log_u)).sum(axis=-1), (u * (log_u - log_r)).sum(axis=-1)
        worst_err = _worst(worst_err, np.abs(gap + kl_ru + kl_ur))
        worst_gap = _worst(worst_gap, gap)
    return worst_err, worst_gap <= 0.0


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@_check("constructions.cyclic_uniform_pool_and_margins", 0, 1e-9, "<=",
        "pool exactly uniform; every agent's welfare rises by C(1/n - eps)")
def _cyclic(run: _Run):
    worst, all_gain = 0.0, True
    ns, fractions = (2, 3, 5, 8), np.array([0.3, 0.08, 0.01])
    for n in ns:
        eps, uniform = fractions / n, np.full(n, 1.0 / n)
        raw, welfare = constructions.cyclic_welfare_rows(n, eps, C=2.0)
        agents = normalize_rows(raw)
        pooled = log_pool_arrays(np.log(agents), uniform)[0]
        gains = (pooled[:, None] * welfare).sum(axis=-1) - (agents * welfare).sum(axis=-1)
        margins = 2.0 * (1.0 / n - eps)
        worst = _worst(worst, _tv_rows(pooled, uniform), np.abs(gains - margins[:, None]))
        # the covariance criterion must call every agent's gain
        called = (covariance_terms(agents, welfare, pooled[:, None]) >= -VALUE_TOL).all()
        all_gain = all_gain and bool(called)
    return worst, all_gain, len(ns) * len(fractions)


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
        "eps^((n+1) - n*beta_i) on private outcomes", (2, 6))
def _unanimity_pool_formula(run: _Run):
    worst = 0.0
    for (n,), B in run.groups():
        eps, beta = run.rng.uniform(0.01, 0.24, B), random_beta(run.rng, n, (B,))
        agents = normalize_rows(constructions.analytic_unanimity_rows(n, eps))
        pooled = log_pool_arrays(np.log(agents), beta)[0]
        e = eps.astype(np.longdouble)[:, None]
        shared = (1.0 - e - (n - 1) * e ** (n + 1)) ** np.longdouble(1.0)
        raw = np.concatenate([shared, e ** ((n + 1) - n * beta.astype(np.longdouble))], axis=-1)
        worst = _worst(worst, _tv_rows(pooled, raw / raw.sum(axis=-1, keepdims=True)))
    return worst


@_check("constructions.peaked_sum_negative_with_slope", 80, 0.05, "<=",
        "a negative weighted gap sum is reached on the grid for every "
        "strict weight vector; log-normalizer slope matches 1 - max(beta)")
def _peaked_negative(run: _Run):
    worst_slope_err = 0.0
    all_found = True
    cases = 0
    grid = np.array([e for e in constructions.EPSILON_GRID if e < 0.5])
    # the slope claim is asymptotic, so regress on the small-eps tail of the
    # grid (1e-6 down to 1e-10)
    tail = grid <= 1e-6
    for n in (2, 4):
        beta = random_beta(run.rng, n, (max(10, run.samples // 8),))
        agents = normalize_rows(constructions.peaked_incompatible_rows(n, grid))
        # every weight vector (W) against every grid family (E) at once
        pooled, log_z = log_pool_arrays(np.log(agents), beta[:, None, :])
        gaps = gap_terms(agents, pooled[..., None, :])[0]
        sums = np.matmul(gaps[..., None, :], beta[:, None, :, None])[..., 0, 0]
        found = (sums < 0.0).any(axis=-1)
        all_found = all_found and bool(found.all())
        for w in np.flatnonzero(found):
            slope = float(np.polyfit(np.log(grid[tail]), log_z[w, tail], 1)[0])
            expected = 1.0 - float(beta[w].max())
            worst_slope_err = max(worst_slope_err, abs(slope - expected) / expected)
            cases += 1
    return worst_slope_err, all_found, cases


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

@_check("factorize.pairwise_distinct_reconstructs", 80, 1e-12, "<=",
        "children re-pool to the parent exactly; all pairwise tv "
        "distances exceed the distinctness floor", (3, 9), (2, 6))
def _factor_distinct(run: _Run):
    worst_tv, worst_dist = 0.0, np.inf
    for (m, n), B in run.groups():
        parent, beta = random_probs(run.rng, m, batch=(B,)), random_beta(run.rng, n, (B,))
        draws = run.rng.standard_normal((B, n - 1, m))
        # strict weights: child 0 is the absorber; a retry draws on from run.rng
        children = factorize._distinct_children(parent, beta, 0, lambda r, a: run.rng, draws)
        worst_tv = _worst(worst_tv, _tv_rows(log_pool_arrays(np.log(children), beta)[0], parent))
        family = np.concatenate([parent[:, None], children], axis=1)
        a, b = np.triu_indices(family.shape[1], 1)
        worst_dist = min(worst_dist, float(_tv_rows(family[:, a], family[:, b]).min()))
    return worst_tv, worst_dist > factorize.DISTINCTNESS_TV


@_check("factorize.fixed_children_reconstructs", 60, 1e-12, "<=",
        "prescribed children pass through bit-identical and the "
        "family still re-pools to the parent", (1, 3), (0, 3), (3, 9))
def _factor_fixed(run: _Run):
    worst, fixed_kept = 0.0, True
    for (k, extra, m), B in run.groups():
        n = k + 2 + extra  # k fixed children, one solved for, at least one tilted
        parent, fixed = random_probs(run.rng, m, batch=(B,)), random_probs(run.rng, m, k, (B,))
        beta, draws = random_beta(run.rng, n, (B,)), run.rng.standard_normal((B, n - k - 1, m))
        children = factorize._balanced_children(parent, beta, fixed, k, draws)
        fixed_kept = fixed_kept and np.array_equal(fixed, children[:, :k])
        worst = _worst(worst, _tv_rows(log_pool_arrays(np.log(children), beta)[0], parent))
    return worst, fixed_kept


@_check("factorize.split_leaves_pool_unchanged", 80, 1e-10, "<=",
        "max pool drift under compatible splits, plus clone-gap "
        "agreement for zero tilts", (3, 9), (2, 5))
def _split_invariance(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        idx, alpha = run.rng.integers(0, n, B), run.rng.uniform(0.1, 0.9, B)
        g = 0.7 * run.rng.standard_normal((B, m))
        parent = log_pool_arrays(np.log(agents), beta)[0]
        agent = np.take_along_axis(agents, idx[:, None, None], axis=1)[:, 0]
        pieces = factorize._split_pieces(np.log(agent), alpha, g)
        # a zero-tilt split produces two clones with the original's welfare gap
        clones = factorize._split_pieces(np.log(agent), alpha, np.zeros_like(g))
        deltas = [
            factorize._split_repool(parent, agents, beta, idx, alpha, q) for q in (pieces, clones)
        ]
        clone_gaps = gap_terms(clones, parent[:, None, :])[0]
        worst = _worst(worst, *deltas, np.abs(clone_gaps - gap_terms(agent, parent)[0][:, None]))
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
        "to the same base is bit-exact identity", (3, 9), (2, 7))
def _transport(run: _Run):
    worst = 0.0
    identity_ok = True
    for (m, n), B in run.groups():
        agents, beta = random_probs(run.rng, m, n, (B,)), random_beta(run.rng, n, (B,))
        target = random_probs(run.rng, m, batch=(B,))
        parent = log_pool_arrays(np.log(agents), beta)[0]
        moved = stability.transport_rows(agents, parent[:, None, :], target[:, None, :])
        worst = _worst(worst, _tv_rows(log_pool_arrays(np.log(moved), beta)[0], target))
        space = OutcomeSpace(m)
        child, base = Dist(space, agents[0, 0]), Dist(space, parent[0])
        identity_ok = identity_ok and stability.transport(child, base, base) is child
    return worst, identity_ok


@_check("stability.unanimity_survives_in_a_ball", 16, 0.0, ">",
        "smallest proved log-ratio radius around the strictly unanimous "
        "instances n = 2, 3 (must be positive); each ball's vertex probes "
        "must all stay strictly unanimous")
def _openness(run: _Run):
    least, ok = np.inf, True
    for n in (2, 3):
        decomp = constructions.analytic_unanimity_instance(
            n, constructions.find_epsilon_for_unanimity(n)
        )
        rho, gaps = stability._vertex_probes(decomp, run.rng, run.samples)
        least, ok = min(least, rho), ok and bool((gaps > UNANIMITY_TOL).all())
    return least, ok


@_check("stability.tilt_derivative_matches_finite_difference", 120, 1e-6, "<=",
        "max relative error between -Cov(h, log p) and a central "
        "finite difference of the tilted gap", (2, 9))
def _tilt_fd(run: _Run):
    worst = 0.0
    for (m,), B in run.groups():
        p, h = random_probs(run.rng, m, batch=(B,)), run.rng.standard_normal((B, m))
        analytic = stability._gap_derivatives(p, h)
        # a derivative below 1e-3 is held to an absolute error of 1e-3 * tol
        err = np.abs(stability._gap_fd(p, h) - analytic) / np.maximum(np.abs(analytic), 1e-3)
        worst = _worst(worst, err)
    return worst


@_check("stability.weighted_tilt_derivatives_cancel", 100, 1e-8, "<=",
        "max |sum_i beta_i d(gap_i)| over families of tilts whose "
        "weighted sum vanishes pointwise", (2, 9), (2, 6))
def _local_audit(run: _Run):
    worst = 0.0
    for (m, n), B in run.groups():
        p, beta = random_probs(run.rng, m, batch=(B,)), random_beta(run.rng, n, (B,))
        hs = run.rng.standard_normal((B, n - 1, m))
        # the closing tilt cancels the others pointwise, summed in j order
        closing = -sum(beta[:, j, None] * hs[:, j] for j in range(n - 1))
        tilts = np.concatenate([hs, (closing / beta[:, -1:])[:, None]], axis=1)
        worst = _worst(worst, np.abs(stability._audit(p, tilts, beta)[1]))
    return worst


# ---------------------------------------------------------------------------
# persona
# ---------------------------------------------------------------------------

def _persona_group(rng: np.random.Generator, B: int, m: int, n: int):
    """B random decompositions as rows: their parents p (B, m) and centered
    profiles (B, n, m)."""
    logs = np.log(random_probs(rng, m, n, (B,)))
    p = log_pool_arrays(logs, random_beta(rng, n, (B,)))[0]
    return p, persona._centered(p, logs)


def _events(rng: np.random.Generator, B: int, m: int) -> list[np.ndarray]:
    """B random events of 1 to m - 2 distinct outcomes of ``m``, as sorted
    index arrays: each event's size, then the first outcomes of a uniform
    random order of all m."""
    size = rng.integers(1, m - 1, B)
    rank = rng.random((B, m)).argsort(axis=-1).argsort(axis=-1)
    return [np.flatnonzero(row) for row in rank < size[:, None]]


@_check("persona.linearization_residual_is_second_order", 80, 1.9, ">=",
        "min log-log slope of the linearization residual (quadratic "
        "decay means slope about 2)", (3, 9), (2, 6))
def _residual_slope(run: _Run):
    least = np.inf
    for (m, n), B in run.groups():
        p, V = _persona_group(run.rng, B, m, n)
        d = run.rng.standard_normal((B, n))
        predicted = _combine(d - d.mean(axis=-1, keepdims=True), V)
        r1, r2 = persona._residual(p, predicted, 1e-2), persona._residual(p, predicted, 1e-3)
        slope = (np.log(r1) - np.log(r2)) / (np.log(1e-2) - np.log(1e-3))
        least = np.minimum(least, slope.min())  # a zero prediction's NaN slope fails
    return least


@_check("persona.compensation_inequality_slack", 80, -1e-9, ">=",
        "min slack of the compensation inequality over random "
        "small zero-sum weight changes", (3, 9), (2, 6))
def _compensation_slack(run: _Run):
    least = np.inf
    for (m, n), B in run.groups():
        # every draw is usable: each beta_i >= 0.15 / (1.15 n) > 0.026 for n <= 5
        # exceeds |d_i| <= 1e-3, and a centered normal d has a positive max
        (agents, beta, d), _ = constructions.random_weight_change(run.rng, m, n, 1e-3, (B,))
        logs, h = np.log(agents), d.argmax(axis=-1)
        p, delta = log_pool_arrays(logs, beta)[0], d[np.arange(B), h]
        slack = persona._compensation(p, logs, beta, d, h, delta, None)["slack"]
        least = np.minimum(least, slack.min())
    return least


@_check("persona.counteragent_weight_forced_up", 0, 0.0, ">",
        "on the engineered instance the single counteracting agent's "
        "weight increase has a strictly positive lower bound, and the "
        "realized increase meets it")
def _counteragent_bound(run: _Run):
    decomp, h_index, dbeta = constructions.single_counteragent_instance(delta=0.02)
    rep = persona.compensation_bound(decomp, h_index, 0.02, epsilon=0.005, dbeta=dbeta)
    bound = rep.counter_lower_bound if rep.counter_lower_bound is not None else -1.0
    ok = rep.single_anti_aligned and rep.aligned_not_downgraded
    return bound, ok and float(dbeta[rep.counter_index]) >= bound - 1e-12, 1


@_check("persona.suppression_never_beaten", 40, 1e-9, "<=",
        "max excess of any brute-force in-span direction over the "
        "claimed optimum (also checks the plan's own first-order effect)", (3, 9), (2, 6))
def _suppression_optimal(run: _Run):
    worst = -np.inf
    budget = 0.05
    for (m, n), B in run.groups():
        p, V = _persona_group(run.rng, B, m, n)
        events = _events(run.rng, B, m)
        g = persona._event_direction(p, events)
        delta_l, achieved, _, _ = persona._suppression(p, V, g, budget)
        linear = persona._event_change(p, events, delta_l)[1]
        worst = _worst(worst, np.abs(linear + achieved))
        # 2000 random in-span directions per row, scaled to the budget
        cand = run.rng.standard_normal((B, 2000, n)) @ V
        norms2 = (cand**2 * p[:, None]).sum(axis=-1)
        keep = norms2 > 1e-20
        cand = cand * (budget / np.sqrt(np.where(keep, norms2, 1.0)))[..., None]
        ind = (g > 0.0) * 1.0  # the event's indicator: g is 1 - P(event) on it, -P(event) off it
        g = ind - np.matmul(ind[:, None], p[..., None])[:, 0]
        reductions = -(cand * g[:, None] * p[:, None]).sum(axis=-1)
        worst = _worst(worst, np.where(keep, reductions, -np.inf).max(axis=-1) - achieved)
    return worst


@_check("persona.projection_gain_pythagoras", 80, 1e-10, "<=",
        "max disagreement between the direct and incremental squared "
        "projection norms; re-adding a spanned profile gains nothing", (3, 9), (2, 6))
def _projection_gain(run: _Run):
    worst, gains_ok = 0.0, True
    for (m, n), B in run.groups():
        p, V = _persona_group(run.rng, B, m, n)
        raw, events = run.rng.standard_normal((B, m)), _events(run.rng, B, m)
        g = persona._event_direction(p, events)
        w = raw - (p * raw).sum(axis=-1, keepdims=True)
        rep = persona._projection_gain(p, V, w, g, 0.05)
        member = persona._projection_gain(p, V, V[:, 0], g, 0.05)
        worst = _worst(worst, np.abs(rep["sq_enlarged_direct"] - rep["sq_enlarged_pythagoras"]))
        gains_ok = gains_ok and not (rep["gain"] < -1e-12).any()
        gains_ok = gains_ok and member["w_in_span"].all() and not member["gain"].any()
    return worst, gains_ok


@_check("persona.kl_matches_half_variance", 200, 0.1, "<=",
        "max |KL / (Var/2) - 1| for log-deviations of weighted norm "
        "at most 0.01", (2, 13))
def _kl_budget(run: _Run):
    worst = 0.0
    for (m,), B in run.groups():
        p, raw = random_probs(run.rng, m, batch=(B,)), run.rng.standard_normal((B, m))
        scale = run.rng.uniform(0.1, 1.0, B) * 0.01
        current = persona._norm(p, raw - (p * raw).sum(axis=-1, keepdims=True))
        delta_l = raw * (scale / np.maximum(current, 1e-12))[:, None]
        kl_value, half_var = persona._kl_budget(p, delta_l)
        worst = _worst(worst, np.abs(kl_value / half_var - 1.0))
    return worst
