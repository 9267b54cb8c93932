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
order; ``run.rngs()`` builds the streams ``run.rng(i)`` of all its instances
in one batch, bit for bit the same.  So a seed pins every number in the run.
Checks compare library results against independent re-computations
(extended-precision pooling, closed forms, brute-force searches).

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
from .constructions import _draws, random_beta, random_decomposition, random_dist, random_probs
from .core import (
    Dist, OutcomeSpace, ScoreFn, Weights, event_indices, expect, make_dist, norm_p,
    normalize_rows, require_prob_rows, require_weight_rows, rng_from, tv, uniform,
    _integer, _rng_streams, _tv_rows,
)
from .errors import ParamOutOfRange, UnknownSuite
from .pooling import linear_pool_arrays, log_pool, log_pool_arrays
from .welfare import covariance_condition, covariance_terms, gap_terms, unanimity_report

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
    tolerance, and ``rng(*path)`` and ``rngs()`` on the check's own streams."""

    seed: int
    samples: int
    tol: float
    ids: tuple[int, int]

    def rng(self, *path: int) -> np.random.Generator:
        return rng_from(self.seed, *self.ids, *path)

    def rngs(self, *path: int, count: int | None = None) -> list[np.random.Generator]:
        """``rng(*path, i)`` for i below ``count`` (the instance count)."""
        count = self.samples if count is None else count
        return _rng_streams(self.seed, *self.ids, *path, count=count)


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
    if samples is not None:
        samples = _integer(samples, "samples")
        if samples < 1:
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


def _by_shape(shape, rngs, *aligned) -> list[tuple]:
    """Each instance's stream (of ``rngs``) first draws its shape key
    ``shape(rng)``; the instances grouped by key in first-seen order, as
    ``(key, rngs, *aligned)`` lists (``aligned``: more per-instance
    sequences).  A group's later draws, one generator call each, then leave
    every stream's draw order as one instance at a time would draw it."""
    groups: dict = {}
    for instance in zip(rngs, *aligned):
        groups.setdefault(shape(instance[0]), []).append(instance)
    return [(key, *map(list, zip(*rows))) for key, rows in groups.items()]


def _families(run: _Run, **sizes):
    """Each instance's sizes, n random agents and their strict weights,
    grouped by (m, n) and validated as ``Dist`` and ``Weights`` validate:
    ``(agents (B, n, m), beta (B, n), rngs)``, the group's streams drawing on."""
    for (m, n), rngs in _by_shape(lambda rng: _sizes(rng, **sizes), run.rngs()):
        agents, beta = random_probs(rngs, m, n), random_beta(rngs, n)
        require_prob_rows(agents)
        require_weight_rows(beta)
        yield agents, beta, rngs


def _log_pool(logs: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked log pools and log Z, each pooled row validated as a ``Dist``."""
    pooled, log_z = log_pool_arrays(logs, beta)
    require_prob_rows(pooled)
    return pooled, log_z


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
        "max tv between log_pool and an extended-precision recomputation")
def _log_pool_extended(run: _Run):
    worst = 0.0
    for agents, beta, _ in _families(run):
        pooled = _log_pool(np.log(agents), beta)[0]
        worst = _worst(worst, _tv_rows(pooled, _longdouble_log_pool(agents, beta)[0]))
    return worst


@_check("pools.linear_pool_extended_precision", 200, 1e-12, "<=",
        "max tv between linear_pool and an extended-precision recomputation")
def _linear_pool_extended(run: _Run):
    worst = 0.0
    for agents, beta, _ in _families(run):
        pooled = linear_pool_arrays(agents, beta)
        require_prob_rows(pooled)
        oracle = (beta.astype(np.longdouble)[..., None] * agents.astype(np.longdouble)).sum(axis=-2)
        worst = _worst(worst, _tv_rows(pooled, oracle / oracle.sum(axis=-1, keepdims=True)))
    return worst


@_check("pools.weight_edge_cases", 60, 1e-12, "<=",
        "max tv over one-hot weights, dropped zero weights, identical agents")
def _pool_weight_edges(run: _Run):
    worst = 0.0
    for agents, beta, rngs in _families(run, n_lo=3):
        (count, n), logs = beta.shape, np.log(agents)
        j, rows = _draws(rngs, lambda r: r.integers(0, n)), np.arange(count)
        # a one-hot weight vector must return that agent
        onehot = _tv_rows(_log_pool(logs, np.eye(n)[j])[0], agents[rows, j])
        # zero-weight agents must not matter
        zeroed = beta.copy()
        zeroed[rows, j] = 0.0
        zeroed = zeroed / zeroed.sum(axis=-1, keepdims=True)
        keep = np.arange(n) != j[:, None]
        reduced = logs[keep].reshape(count, n - 1, -1), zeroed[keep].reshape(count, n - 1)
        dropped = _tv_rows(_log_pool(logs, zeroed)[0], _log_pool(*reduced)[0])
        # pooling identical copies returns the copy
        copies = _tv_rows(_log_pool(logs[:, [0] * n], beta)[0], agents[:, 0])
        worst = _worst(worst, onehot, dropped, copies)
    return worst


@_check("pools.log_normalizer", 200, 1e-12, "<=",
        "max error of the log-normalizer against extended precision, "
        "its sign bound, and exact renormalization")
def _log_z(run: _Run):
    worst = 0.0
    for agents, beta, _ in _families(run):
        logs = np.log(agents)
        log_z = _log_pool(logs, beta)[1]
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

def _agent_pool_pairs(run: _Run):
    """Per instance an m in [2, 9), an agent and a pool, grouped by m:
    ``(agents (B, m), pools (B, m), rngs)``, the group's streams drawing on."""
    for m, rngs in _by_shape(lambda rng: int(rng.integers(2, 9)), run.rngs()):
        pair = random_probs(rngs, m, 2)
        require_prob_rows(pair)
        yield pair[:, 0], pair[:, 1], rngs


@_check("welfare.gap_extended_precision", 200, 1e-12, "<=",
        "max |welfare_gap - extended-precision recomputation|")
def _gap_extended(run: _Run):
    worst = 0.0
    for agent, pool, _ in _agent_pool_pairs(run):
        gaps = gap_terms(agent, pool)[0]  # raises if its two forms disagree
        pa, pr = agent.astype(np.longdouble), pool.astype(np.longdouble)
        la = np.log(pa)
        oracle = ((pr * la).sum(axis=-1) - (pa * la).sum(axis=-1)).astype(float)
        worst = _worst(worst, np.abs(gaps - oracle))
    return worst


@_check("welfare.covariance_equals_mean_shift", 200, 1e-10, "<=",
        "max |covariance criterion - (E_pool[w] - E_agent[w])|")
def _cov_condition(run: _Run):
    worst = 0.0
    for agent, pool, rngs in _agent_pool_pairs(run):
        w = _draws(rngs, lambda r: r.standard_normal(agent.shape[-1]))
        c = covariance_terms(agent, w, pool)
        shift = (pool * w).sum(axis=-1) - (agent * w).sum(axis=-1)
        worst = _worst(worst, np.abs(c - shift))
        if ((c >= -1e-9) != (shift >= -1e-9)).any():
            worst = max(worst, 1.0)
    return worst


@_check("welfare.binary_closed_form", 200, 1e-10, "<=",
        "max |welfare_gap - (x - x_i) log(x_i/(1-x_i))| on two outcomes")
def _binary_closed_form(run: _Run):
    rngs = run.rngs()
    x = _draws(rngs, lambda r: r.uniform(0.02, 0.98, 2))
    b = _draws(rngs, lambda r: r.uniform(0.1, 0.9))
    agents = normalize_rows(np.stack([x, 1.0 - x], axis=-1))
    require_prob_rows(agents)
    pooled = _log_pool(np.log(agents), np.stack([b, 1.0 - b], axis=-1))[0]
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
    require_prob_rows(x)
    agents = np.stack([x[i1], x[i2]], axis=1)
    pooled = _log_pool(np.log(agents), np.stack([b, 1.0 - b], axis=1))[0]
    gaps = gap_terms(agents, pooled[:, None, :])[0]
    x1, x2, mass = grid[i1], grid[i2], pooled[:, 0]
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    between_ok = bool(((lo < mass) & (mass < hi))[x1 != x2].all())
    return gaps.min(axis=1).max(), between_ok


@_check("welfare.uniform_reference_no_gain", 200, 1e-10, "<=",
        "uniform's gap against any reference is <= 0 and equals "
        "-(KL(r,u)+KL(u,r)); value is the max identity error")
def _uniform_no_gain(run: _Run):
    worst_err, worst_gap = 0.0, -np.inf
    for m, rngs in _by_shape(lambda rng: int(rng.integers(2, 13)), run.rngs()):
        r = random_probs(rngs, m)
        require_prob_rows(r)
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
                c, verdict = covariance_condition(agent, w, pooled)
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
    for n, rngs in _by_shape(lambda rng: int(rng.integers(2, 6)), run.rngs()):
        eps, beta = _draws(rngs, lambda r: r.uniform(0.01, 0.24)), random_beta(rngs, n)
        require_weight_rows(beta)
        agents = normalize_rows(constructions.analytic_unanimity_rows(n, eps))
        require_prob_rows(agents)
        pooled = _log_pool(np.log(agents), beta)[0]
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
        beta = random_beta(run.rngs(n, count=max(10, run.samples // 8)), n)
        require_weight_rows(beta)
        agents = normalize_rows(constructions.peaked_incompatible_rows(n, grid))
        require_prob_rows(agents)
        # every weight vector (W) against every grid family (E) at once
        pooled, log_z = _log_pool(np.log(agents), beta[:, None, :])
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
        "distances exceed the distinctness floor")
def _factor_distinct(run: _Run):
    worst_tv, worst_dist = 0.0, np.inf
    sizes = lambda rng: _sizes(rng, m_lo=3, n_hi=6)  # noqa: E731
    for (m, n), rngs, index in _by_shape(sizes, run.rngs(), range(run.samples)):
        parent, beta = random_probs(rngs, m), random_beta(rngs, n)
        require_prob_rows(parent)
        require_weight_rows(beta)
        draws = _draws(rngs, lambda r: r.standard_normal((n - 1, m)))
        # strict weights: child 0 is the absorber; a retry of instance i draws
        # from run.rng(i, attempt)
        redraw = lambda r, attempt: run.rng(index[r], attempt)  # noqa: E731
        children = factorize._distinct_children(parent, beta, 0, redraw, draws)
        worst_tv = _worst(worst_tv, _tv_rows(_log_pool(np.log(children), beta)[0], parent))
        family = np.concatenate([parent[:, None], children], axis=1)
        a, b = np.triu_indices(family.shape[1], 1)
        worst_dist = min(worst_dist, float(_tv_rows(family[:, a], family[:, b]).min()))
    return worst_tv, worst_dist > factorize.DISTINCTNESS_TV


@_check("factorize.fixed_children_reconstructs", 60, 1e-12, "<=",
        "prescribed children pass through bit-identical and the "
        "family still re-pools to the parent")
def _factor_fixed(run: _Run):
    def sizes(rng):
        k = int(rng.integers(1, 3))
        n = k + 2 + int(rng.integers(0, 3))
        return int(rng.integers(3, 9)), n, k

    worst = 0.0
    for (m, n, k), rngs in _by_shape(sizes, run.rngs()):
        parent, fixed, beta = random_probs(rngs, m), random_probs(rngs, m, k), random_beta(rngs, n)
        require_prob_rows(parent)
        require_prob_rows(fixed)
        require_weight_rows(beta)
        draws = _draws(rngs, lambda r: r.standard_normal((n - k - 1, m)))
        children = factorize._balanced_children(parent, beta, fixed, k, draws)
        if not np.array_equal(fixed, children[:, :k]):
            worst = 1.0
        worst = _worst(worst, _tv_rows(_log_pool(np.log(children), beta)[0], parent))
    return worst


@_check("factorize.split_leaves_pool_unchanged", 80, 1e-10, "<=",
        "max pool drift under compatible splits, plus clone-gap "
        "agreement for zero tilts")
def _split_invariance(run: _Run):
    worst = 0.0
    for (m, n), rngs in _by_shape(lambda rng: _sizes(rng, m_lo=3, n_hi=5), run.rngs()):
        agents, beta = random_probs(rngs, m, n), random_beta(rngs, n)
        require_prob_rows(agents)
        require_weight_rows(beta)
        idx = _draws(rngs, lambda r: r.integers(0, n))
        alpha = _draws(rngs, lambda r: r.uniform(0.1, 0.9))
        g = 0.7 * _draws(rngs, lambda r: r.standard_normal(m))
        parent = _log_pool(np.log(agents), beta)[0]
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
        "to the same base is bit-exact identity")
def _transport(run: _Run):
    worst = 0.0
    identity_ok = True
    for agents, beta, rngs in _families(run, m_lo=3):
        target = random_probs(rngs, agents.shape[-1])
        parent = _log_pool(np.log(agents), beta)[0]
        moved = stability.transport_rows(agents, parent[:, None, :], target[:, None, :])
        require_prob_rows(moved)
        worst = _worst(worst, _tv_rows(_log_pool(np.log(moved), beta)[0], target))
        space = OutcomeSpace(agents.shape[-1])
        child, base = Dist(space, agents[0, 0]), Dist(space, parent[0])
        identity_ok = identity_ok and stability.transport(child, base, base) is child
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
    def score(rngs, m):
        """Each stream's p and h: their derivatives and relative fd errors."""
        p, h = random_probs(rngs, m), _draws(rngs, lambda r: r.standard_normal(m))
        require_prob_rows(p)
        analytic = stability._gap_derivatives(p, h)
        return analytic, np.abs(stability._gap_fd(p, h) - analytic) / np.abs(analytic)

    worst = 0.0
    outcomes = lambda rng: int(rng.integers(2, 9))  # noqa: E731
    first = _rng_streams(run.seed, *run.ids, 0, count=run.samples, at=3)  # run.rng(i, 0)
    for m, rngs, index in _by_shape(outcomes, first, range(run.samples)):
        analytic, err = score(rngs, m)
        # a derivative below 1e-3 redraws from run.rng(i, k), k = 1, 2, ...,
        # until it reaches 1e-3 or the 50th attempt
        retry = np.abs(analytic) < 1e-3
        for i in np.asarray(index)[retry].tolist():
            for attempt in range(1, 50):
                rng = run.rng(i, attempt)
                derivative, retried = score([rng], outcomes(rng))
                if attempt == 49 or abs(derivative[0]) >= 1e-3:
                    break
            worst = _worst(worst, retried)
        worst = float(err.max(initial=worst, where=~retry))
    return worst


@_check("stability.weighted_tilt_derivatives_cancel", 100, 1e-8, "<=",
        "max |sum_i beta_i d(gap_i)| over families of tilts whose "
        "weighted sum vanishes pointwise")
def _local_audit(run: _Run):
    worst = 0.0
    for (m, n), rngs in _by_shape(lambda rng: _sizes(rng, n_hi=6), run.rngs()):
        p, beta = random_probs(rngs, m), random_beta(rngs, n)
        require_prob_rows(p)
        require_weight_rows(beta)
        hs = _draws(rngs, lambda r: r.standard_normal((n - 1, m)))
        # the closing tilt cancels the others pointwise, summed in j order
        closing = -sum(beta[:, j, None] * hs[:, j] for j in range(n - 1))
        tilts = np.concatenate([hs, (closing / beta[:, -1:])[:, None]], axis=1)
        worst = _worst(worst, np.abs(stability._audit(p, tilts, beta)[1]))
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
    sizes = lambda rng: _sizes(rng, m_lo=3, n_hi=6)  # noqa: E731
    return min(
        persona.random_compensation_report(lambda k: run.rng(i, k), sizes, 1e-3).slack
        for i in range(run.samples)
    )


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
    for rng in run.rngs():
        decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
        profiles = persona.centered_profiles(decomp)
        m = decomp.space.size
        event = tuple(constructions.random_event(rng, m))
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
    for rng in run.rngs():
        decomp = random_decomposition(rng, *_sizes(rng, m_lo=3, n_hi=6))
        profiles = persona.centered_profiles(decomp)
        m = decomp.space.size
        raw = rng.standard_normal(m)
        w = persona.LogProfile(decomp.parent, raw - expect(decomp.parent, raw))
        event = tuple(constructions.random_event(rng, m))
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
    for rng in run.rngs():
        m = int(rng.integers(2, 13))
        p = random_dist(rng, OutcomeSpace(m))
        raw = rng.standard_normal(m)
        scale = float(rng.uniform(0.1, 1.0)) * 0.01
        current = norm_p(p, raw - expect(p, raw))
        delta_l = ScoreFn(p.space, raw * (scale / max(current, 1e-12)))
        kl_value, half_var = persona.kl_budget(p, delta_l)
        worst = max(worst, abs(kl_value / half_var - 1.0))
    return worst
