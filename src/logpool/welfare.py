"""Epistemic welfare: log-score gaps, the covariance criterion, unanimity verdicts.

An agent's epistemic utility of an outcome is its own log-probability of that
outcome.  The welfare gap of agent R against a pooled distribution P is

    gap(R, P) = E_P[log R] − E_R[log R],

i.e. how much R's expected log-score improves when outcomes are drawn from P
instead of from R itself.  The same quantity decomposes exactly as
H(R) − H(P) − KL(P‖R); both forms are computed and cross-checked on every
call, so a disagreement (numerical pathology) can never pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dist, ScoreFn, VALUE_TOL, first_row, _cov
from .errors import IdentityMismatch, SpaceMismatch
from .pooling import Decomposition

__all__ = [
    "WelfareReport",
    "gap_terms",
    "welfare_gap",
    "covariance_condition",
    "unanimity_report",
]

#: Verdict tolerance: "unanimous" admits gaps >= -UNANIMITY_TOL, "strict"
#: demands gaps > +UNANIMITY_TOL, so the strict/non-strict distinction
#: survives floating point.
UNANIMITY_TOL = 1e-9


def gap_terms(
    agents: np.ndarray, pools: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked welfare gaps of agents R (..., m) against pools P (..., m).

    Returns ``(gaps, entropy_agents, entropy_pools, kl_pool_agents)``; each
    entropy is computed once over its own input's leading axes, the gaps and
    KL terms over the broadcast ones.  The gap is the direct form
    E_P[log R] − E_R[log R]; the identity form H(R) − H(P) − KL(P‖R) must
    agree within ``VALUE_TOL`` on every row, checked once per batch, or
    :class:`IdentityMismatch` names the first row that disagrees.
    """
    log_r = np.log(agents)
    log_p = np.log(pools)
    e_r = (agents * log_r).sum(axis=-1)
    gaps = (pools * log_r).sum(axis=-1) - e_r
    h_r = -e_r
    h_p = -(pools * log_p).sum(axis=-1)
    kl_pr = (pools * (log_p - log_r)).sum(axis=-1)
    identity = h_r - h_p - kl_pr
    bad = np.abs(gaps - identity) > VALUE_TOL
    if bad.any():
        row, where = first_row(bad)
        raise IdentityMismatch(
            f"welfare gap disagreement{where}: "
            f"direct={float(gaps[row])!r} identity={float(identity[row])!r}"
        )
    return gaps, h_r, h_p, kl_pr


def welfare_gap(agent: Dist, pool: Dist) -> float:
    """E_pool[log agent] − E_agent[log agent], cross-checked two ways.

    The direct expectation form is returned; the entropy/KL identity form
    must agree within ``VALUE_TOL`` or :class:`IdentityMismatch` is raised.
    """
    if agent.space != pool.space:
        raise SpaceMismatch("agent and pool must share an outcome space")
    return float(gap_terms(agent.p, pool.p)[0])


def covariance_condition(agent: Dist, welfare: ScoreFn, pool: Dist) -> tuple[float, bool]:
    """Covariance test for whether joining the pool helps this agent.

    Returns ``(c, verdict)`` where ``c = Cov_agent(welfare, ratio)`` with
    ``ratio(o) = pool(o)/agent(o)`` and ``verdict = (c >= -VALUE_TOL)``.  The
    covariance equals E_pool[welfare] − E_agent[welfare] exactly, so the
    verdict is the same as asking whether the agent's expected welfare
    weakly improves under the pool.

    The ratio is evaluated as exp(log pool − log agent) to avoid
    cancellation on peaked inputs.
    """
    if agent.space != pool.space or welfare.space != pool.space:
        raise SpaceMismatch("agent, welfare, and pool must share an outcome space")
    c = float(covariance_terms(agent.p, welfare.f, pool.p))
    return c, bool(c >= -VALUE_TOL)


def covariance_terms(agents: np.ndarray, welfare: np.ndarray, pools: np.ndarray) -> np.ndarray:
    """Stacked covariance criteria Cov_R(w, P/R) over rows (..., m) of agents
    R, welfare values w and pools P, from centered values, with the ratio
    evaluated as exp(log P − log R)."""
    return _cov(agents, welfare, np.exp(np.log(pools) - np.log(agents)))


@dataclass(frozen=True, slots=True)
class WelfareReport:
    """Per-child welfare gaps with their entropy/KL breakdown and verdicts.

    ``gaps[i] = entropy_children[i] − entropy_parent − kl_parent_children[i]``
    holds within ``tolerance`` by construction (it is re-checked, not assumed).
    """

    gaps: np.ndarray
    entropy_children: np.ndarray
    entropy_parent: float
    kl_parent_children: np.ndarray
    unanimous: bool
    strictly_unanimous: bool
    tolerance: float

    def __post_init__(self) -> None:
        for name in ("gaps", "entropy_children", "kl_parent_children"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        recomposed = self.entropy_children - self.entropy_parent - self.kl_parent_children
        err = float(np.max(np.abs(recomposed - self.gaps)))
        if err > self.tolerance:
            raise IdentityMismatch(
                f"gap/entropy breakdown disagrees by {err:.3e}"
            )
        if self.strictly_unanimous and not self.unanimous:
            raise IdentityMismatch("strict unanimity without unanimity")

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())


def unanimity_report(decomp: Decomposition) -> WelfareReport:
    """Welfare gaps of every child against the parent, with verdicts.

    Epistemic welfare is hard-coded here: each child's welfare function is
    its own log-probability vector.  (For general welfare functions use
    :func:`covariance_condition`.)  Linear-pool decompositions are accepted
    so the mixture impossibility is demonstrable through the same report.
    """
    gaps, h_children, h_parent, kl_terms = gap_terms(
        np.stack([c.p for c in decomp.children]), decomp.parent.p
    )
    return WelfareReport(
        gaps=gaps,
        entropy_children=h_children,
        entropy_parent=float(h_parent),
        kl_parent_children=kl_terms,
        unanimous=bool(np.all(gaps >= -UNANIMITY_TOL)),
        strictly_unanimous=bool(np.all(gaps > UNANIMITY_TOL)),
        tolerance=UNANIMITY_TOL,
    )
