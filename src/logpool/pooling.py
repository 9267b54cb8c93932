"""Linear and logarithmic opinion pools, pool witnesses, and tilt representations.

The central object is the logarithmic pool: the normalized weighted geometric
mean of the member distributions, computed as a softmax of the weighted sum
of log-probabilities.  A :class:`Decomposition` packages a parent with the
children and weights that certifiably pool back to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Dist,
    OutcomeSpace,
    ScoreFn,
    Weights,
    first_row,
    require_prob_rows,
    softmax,
    _tv_rows,
)
from .errors import LengthMismatch, NotAPoolWitness, ParamOutOfRange, SpaceMismatch

__all__ = [
    "log_pool_arrays",
    "log_pool",
    "log_pool_with_log_z",
    "linear_pool",
    "Decomposition",
    "make_decomposition",
    "tilt_representation",
]

#: tv tolerance for certifying every Decomposition.
POOL_WITNESS_TOL = 1e-12

#: looser tv tolerance for re-pooling a family that is not a Decomposition and
#: carries one extra normalization: the input of :func:`tilt_representation`
#: and the transported probes of :func:`~logpool.stability.certify_openness`.
POOL_REVALIDATION_TOL = 1e-9


def _check_family(agents: Sequence[Dist], weights: Weights) -> OutcomeSpace:
    if len(agents) != weights.n:
        raise LengthMismatch(
            f"{len(agents)} agents but {weights.n} weights"
        )
    if len(agents) == 0:
        raise LengthMismatch("need at least one agent")
    space = agents[0].space
    for a in agents[1:]:
        if a.space != space:
            raise SpaceMismatch("all pooled agents must share one outcome space")
    return space


def log_pool_arrays(logs: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked log pools: the softmax of sum_j beta_j * logs_j.

    ``logs`` holds agent log-probabilities (..., n, m) and ``beta`` their
    weights (..., n).  Returns the pooled probabilities (..., m) and log Z
    (...), Z = sum_o prod_j P_j(o)^beta_j.  Each pooled row is validated as
    :class:`Dist` validates it (by :func:`~logpool.core.softmax`).
    """
    mixed = np.matmul(beta[..., None, :], logs)[..., 0, :]
    return softmax(mixed)


def log_pool(agents: Sequence[Dist], weights: Weights) -> Dist:
    """Normalized weighted geometric mean of ``agents``.

    Computed entirely in log-space: softmax of sum_j beta_j * log P_j.
    """
    return log_pool_with_log_z(agents, weights)[0]


def log_pool_with_log_z(agents: Sequence[Dist], weights: Weights) -> tuple[Dist, float]:
    """Diagnostics variant of :func:`log_pool` that also returns log Z.

    Z is the normalizer sum_o prod_j P_j(o)^beta_j.  No downstream theorem
    needs Z itself, but its decay rate is what the peaked-family analysis
    measures, so the value is exposed here rather than stored anywhere.
    """
    space = _check_family(agents, weights)
    p, log_z = log_pool_arrays(np.stack([a.log_p for a in agents]), weights.beta)
    return Dist(space, p), float(log_z)


def linear_pool(agents: Sequence[Dist], weights: Weights) -> Dist:
    """Convex combination (mixture) of the agent distributions."""
    space = _check_family(agents, weights)
    return Dist(space, linear_pool_arrays(np.stack([a.p for a in agents]), weights.beta))


def linear_pool_arrays(probs: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Stacked linear pools: sum_j beta_j * probs_j, renormalized, for agent
    probabilities (..., n, m) and weights (..., n).  Each pooled row is
    validated as :class:`Dist` validates it."""
    mixed = np.matmul(beta[..., None, :], probs)[..., 0, :]
    pooled = mixed / mixed.sum(axis=-1, keepdims=True)
    require_prob_rows(pooled)
    return pooled


def require_pool_witness(
    children: np.ndarray, beta: np.ndarray, parents: np.ndarray, tol: float, kind: str = "log"
) -> np.ndarray | None:
    """Re-pool stacked children (..., n, m) with weights (..., n) and require
    each pool to be a valid distribution within tv ``tol`` of its parent
    (..., m), or raise :class:`NotAPoolWitness` naming the first row that is
    not.  Returns each log pool's log Z (...), or None for ``kind="linear"``.
    """
    if kind == "log":
        pooled, log_z = log_pool_arrays(np.log(children), beta)
    else:
        pooled, log_z = linear_pool_arrays(children, beta), None
    err = _tv_rows(pooled, parents)
    bad = err > tol
    if bad.any():
        row, where = first_row(bad)
        raise NotAPoolWitness(
            f"children{where} pool to tv distance {float(err[row]):.3e} from the "
            f"claimed parent (tolerance {tol:.1e})"
        )
    return log_z


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A parent distribution with children and weights that pool back to it
    within tv :data:`POOL_WITNESS_TOL`."""

    parent: Dist
    children: tuple[Dist, ...]
    weights: Weights
    pool_kind: str = "log"

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.pool_kind not in ("log", "linear"):
            raise ParamOutOfRange(f"unknown pool kind {self.pool_kind!r}")
        if len(self.children) < 2:
            raise LengthMismatch("a decomposition needs at least two children")
        if len(self.children) != self.weights.n:
            raise LengthMismatch(
                f"{len(self.children)} children but {self.weights.n} weights"
            )
        for c in self.children:
            if c.space != self.parent.space:
                raise SpaceMismatch("children must share the parent's outcome space")
        children = np.stack([c.p for c in self.children])
        require_pool_witness(
            children, self.weights.beta, self.parent.p, POOL_WITNESS_TOL, self.pool_kind
        )

    @property
    def n(self) -> int:
        return len(self.children)

    @property
    def space(self) -> OutcomeSpace:
        return self.parent.space


def make_decomposition(
    children: Sequence[Dist], weights: Weights, pool_kind: str = "log"
) -> Decomposition:
    """Pool the children and package the result as a certified Decomposition;
    a ``pool_kind`` other than "log" or "linear" raises ParamOutOfRange."""
    parent = (log_pool if pool_kind == "log" else linear_pool)(children, weights)
    return Decomposition(parent, tuple(children), weights, pool_kind)


def tilt_representation(parent: Dist, children: Sequence[Dist], weights: Weights) -> list[ScoreFn]:
    """Write each child as an exponential tilt of the parent.

    Returns score functions ``h_i`` with ``P_i ∝ P · exp(h_i)`` and
    ``sum_i beta_i h_i(o) = 0`` at every outcome.  The naive choice
    ``log P_i − log P`` has weighted sum identically equal to log Z, a
    constant; that constant is removed from a single designated index
    k = argmax beta (lowest index on ties), which rescales P_k's
    normalizer and changes nothing else.  The deterministic choice of k
    keeps golden outputs stable.  The children must pool to ``parent``
    within :data:`POOL_REVALIDATION_TOL`.
    """
    space = _check_family(children, weights)
    if space != parent.space:
        raise SpaceMismatch("parent and children must share an outcome space")
    log_z = require_pool_witness(
        np.stack([c.p for c in children]), weights.beta, parent.p, POOL_REVALIDATION_TOL
    )
    k = int(np.argmax(weights.beta))
    tilts = []
    for i, child in enumerate(children):
        h = child.log_p - parent.log_p
        if i == k:
            h = h - log_z / weights.beta[k]
        tilts.append(ScoreFn(space, h))
    return tilts
