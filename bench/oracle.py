"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``logpool``.  Every quantity is recomputed from its
definition in NumPy long double (80-bit extended precision on x86-64), so a
check compares the program against arithmetic that shares none of its code
paths.  Inputs are arrays of probabilities; rows of a 2-D array are agents.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

#: The peakedness grid of the analytic-unanimity threshold search, 10^(-k/4).
EPSILON_GRID = tuple(10.0 ** (-k / 4.0) for k in range(1, 41))

#: Verdict dead zone of README "Numerical conventions": strict means gap > 1e-9.
STRICT_GAP = 1e-9


def _ld(x) -> np.ndarray:
    return np.asarray(x, dtype=LD)


def log_sum_exp(v) -> LD:
    v = _ld(v)
    top = v.max()
    return top + np.log(np.exp(v - top).sum())


def log_pool(agents, beta) -> tuple[np.ndarray, LD]:
    """Normalized weighted geometric mean and its log normalizer log Z."""
    mixed = _ld(beta) @ np.log(_ld(agents))
    log_z = log_sum_exp(mixed)
    return np.exp(mixed - log_z), log_z


def linear_pool(agents, beta) -> np.ndarray:
    p = _ld(beta) @ _ld(agents)
    return p / p.sum()


def entropy(p) -> LD:
    p = _ld(p)
    return -(p * np.log(p)).sum()


def kl(p, q) -> LD:
    p, q = _ld(p), _ld(q)
    return (p * (np.log(p) - np.log(q))).sum()


def tv(p, q) -> LD:
    return 0.5 * np.abs(_ld(p) - _ld(q)).sum()


def welfare_gap(agent, pool) -> LD:
    """E_pool[log agent] - E_agent[log agent]."""
    agent, pool = _ld(agent), _ld(pool)
    log_a = np.log(agent)
    return (pool * log_a).sum() - (agent * log_a).sum()


def transport(child, base, target) -> np.ndarray:
    """child * target / base, renormalized."""
    w = _ld(child) * _ld(target) / _ld(base)
    return w / w.sum()


def projection_norm(base, vectors, g) -> LD:
    """Norm of the base-weighted projection of ``g`` onto span{vectors}.

    Modified Gram-Schmidt in the inner product <f, h> = sum base * f * h;
    a vector whose remainder is below 1e-20 of the largest squared norm is
    dependent and contributes no direction.
    """
    base = _ld(base)

    def inner(f, h):
        return (base * f * h).sum()

    work = [_ld(v) for v in vectors]
    scale = max(inner(v, v) for v in work)
    basis = []
    for v in work:
        for e in basis:
            v = v - inner(v, e) * e
        sq = inner(v, v)
        if sq > 1e-20 * scale:
            basis.append(v / np.sqrt(sq))
    g = _ld(g)
    return np.sqrt(sum(inner(g, e) ** 2 for e in basis))


def suppression_projection_norm(children, beta, event) -> LD:
    """Projection norm of an event's centered indicator onto the span of the
    children's log profiles, all under the children's log pool."""
    parent, _ = log_pool(children, beta)
    logs = np.log(_ld(children))
    profiles = [row - (parent * row).sum() for row in logs]
    g = np.zeros(parent.shape[0], dtype=LD)
    g[np.asarray(event, dtype=int)] = 1
    g -= (parent * g).sum()
    return projection_norm(parent, profiles, g)


def analytic_unanimity_agents(n: int, epsilon: float) -> np.ndarray:
    """The n agents on n+1 outcomes of the analytic-unanimity construction:
    mass 1 - a - (n-1)d on the shared outcome, a = epsilon on the agent's own
    outcome, d = epsilon^(n+1) on the others' outcomes."""
    a = LD(epsilon)
    d = a ** (n + 1)
    agents = np.full((n, n + 1), d, dtype=LD)
    agents[:, 0] = 1 - a - (n - 1) * d
    for i in range(n):
        agents[i, i + 1] = a
    return agents / agents.sum(axis=1, keepdims=True)


def analytic_unanimity_gaps(n: int, epsilon: float) -> np.ndarray:
    """Every agent's welfare gap against the uniform-weight log pool."""
    agents = analytic_unanimity_agents(n, epsilon)
    pool, _ = log_pool(agents, np.full(n, LD(1) / n))
    return np.array([welfare_gap(a, pool) for a in agents])


def unanimity_epsilon(n: int) -> float:
    """Largest grid epsilon below 1/4 whose analytic instance is strictly
    unanimous (every gap above the dead zone)."""
    for eps in EPSILON_GRID:
        if eps < 0.25 and analytic_unanimity_gaps(n, eps).min() > STRICT_GAP:
            return eps
    raise ValueError(f"no strictly unanimous grid epsilon for n={n}")
