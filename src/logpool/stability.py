"""Pool-preserving transport, openness certification, and small-tilt analysis.

Transport reweights every child of a decomposition by the ratio
target/parent, which moves the pooled distribution *exactly* onto the target
(not perturbatively) while keeping the weights.  Built on that, the openness
certifier proves, in closed form, a ball of targets around a strictly
unanimous parent inside which every transported gap stays strictly positive:
a log-ratio radius ρ*, and the tv radius it implies.  Seeded vertex probes of
that ball cross-check the bound; they do not search for it.

The small-tilt tools differentiate an agent's welfare gap along exponential
tilts of the pool, which is where the local impossibility phenomenon lives:
the weight-averaged derivative is always exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    VALUE_TOL,
    Dist,
    ScoreFn,
    Weights,
    first_row,
    rng_from,
    softmax,
    _combine,
    _cov,
    _integer,
    _values,
)
from .errors import (
    NotFound, NotStrictlyUnanimous, ParamOutOfRange, SpaceMismatch, TiltsNotCentered,
)
from .pooling import Decomposition, POOL_REVALIDATION_TOL, require_pool_witness
from .welfare import UNANIMITY_TOL, gap_terms, unanimity_report

__all__ = [
    "transport",
    "OpennessCertificate",
    "certify_openness",
    "tilt_gap_derivative",
    "tilt_gap_fd",
    "local_unanimity_audit",
]

def transport_rows(children: np.ndarray, base: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Stacked transport: the softmax of (log C + log T) − log P over the last
    axis, for children C, base P and target T broadcast together (..., m).
    Each transported row is validated as :class:`Dist` validates it."""
    return softmax(np.log(children) + np.log(target) - np.log(base))[0]


def transport(child: Dist, base: Dist, target: Dist) -> Dist:
    """Reweight ``child`` by target/base and renormalize.

    transport(child, P, P) returns ``child`` bit-for-bit, and
    transport(base, base, target) returns ``target``.
    """
    if child.space != base.space or base.space != target.space:
        raise SpaceMismatch("child, base, and target must share an outcome space")
    if np.array_equal(base.p, target.p):
        return child
    return Dist(child.space, transport_rows(child.p, base.p, target.p))


def _log_ratio_radius(children: np.ndarray, gaps: np.ndarray) -> float:
    """ρ* = min_i (g_i − UNANIMITY_TOL) / (2(osc(log C_i) + 1)) for children
    (n, m) with gaps (n,): every target T = P·e^u/Z with ‖u‖∞ ≤ ρ* keeps each
    transported gap at least UNANIMITY_TOL (see :func:`certify_openness`)."""
    logs = np.log(children)
    osc = logs.max(axis=-1) - logs.min(axis=-1)
    return float(((gaps - UNANIMITY_TOL) / (2.0 * (osc + 1.0))).min())


def _vertex_probes(decomp: Decomposition, rng: np.random.Generator, samples: int):
    """ρ* of ``decomp``, which must be strictly unanimous, and the gaps
    (samples, n) at ``samples`` vertices of its log-ratio ball, u = ±ρ* per
    outcome, drawn with one ``rng`` call: one transport, one re-pool check at
    ``POOL_REVALIDATION_TOL`` and one gap computation for all of them."""
    report = unanimity_report(decomp)
    if not report.strictly_unanimous:
        raise NotStrictlyUnanimous(
            "openness certification needs every gap strictly positive; "
            f"min gap is {report.min_gap!r}"
        )
    parent = decomp.parent.p
    children = np.stack([c.p for c in decomp.children])
    rho = _log_ratio_radius(children, report.gaps)
    u = rng.choice((-rho, rho), (samples, parent.size))
    targets = softmax(np.log(parent) + u)[0]
    moved = transport_rows(children, parent, targets[:, None, :])
    require_pool_witness(moved, decomp.weights.beta, targets, POOL_REVALIDATION_TOL)
    return rho, gap_terms(moved, targets[:, None, :])[0]


@dataclass(frozen=True, slots=True)
class OpennessCertificate:
    """A proved ball around a strictly unanimous decomposition, and the
    probes that cross-checked it.

    Every target P·e^u/Z with ‖u‖∞ ≤ ``log_ratio_radius`` keeps strict
    unanimity after exact transport; so does every target within tv
    ``radius`` of the parent, which is min(p)·(1 − e^(−ρ*)) and underflows
    to 0.0 where the parent's smallest mass is tiny (n = 430 of the analytic
    family).  ``min_gap_at_boundary`` is the smallest gap among ``samples``
    seeded vertex probes of the log-ratio ball.
    """

    center: Decomposition
    radius: float
    samples: int
    min_gap_at_boundary: float
    seed: int
    log_ratio_radius: float

    def __post_init__(self) -> None:
        if not self.log_ratio_radius > 0.0:
            raise NotFound("certificate log-ratio radius must be positive")
        if not self.min_gap_at_boundary > 0.0:
            raise NotFound("boundary gap must be positive")


def certify_openness(
    decomp: Decomposition, samples: int = 64, seed: int = 0
) -> OpennessCertificate:
    """Prove a ball of strict unanimity around the parent in closed form and
    cross-check it at ``samples`` seeded vertices.

    The input must be strictly unanimous and ``samples`` an integer of at
    least 1.  Take a target T = P·e^u/Z with ‖u‖∞ ≤ ρ.  Transport turns each
    child into C_i' = C_i·e^u/Z_i, and the Z_i cancel in the gap, so

        g_i(T) − g_i(P) = (E_T − E_P)[log C_i] − (E_C_i' − E_C_i)[log C_i]
                          + (E_T − E_C_i')[u].

    Both log-ratios log(T/P) and log(C_i'/C_i) lie in an interval of width
    2ρ, so each pair of measures is within tv tanh(ρ/2) ≤ ρ, and
    |E_Q' f − E_Q f| ≤ tv·osc f; the last term is at most osc u ≤ 2ρ.
    Hence g_i(T) ≥ g_i(P) − 2ρ(osc(log C_i) + 1), and the ball holds at
    ρ* = min_i (g_i − UNANIMITY_TOL) / (2(osc_i + 1)).  A target within tv r
    of P moves each mass by at most r, so r = min(p)·(1 − e^(−ρ*)) keeps
    |log(T/P)| ≤ ρ*: that is ``radius``.

    The probes are vertices u = ±ρ* per outcome, drawn from
    ``rng_from(seed)`` in one call, so a run with more samples extends the
    probe set of a run with fewer.  A probe that loses strict unanimity
    breaks the bound, and raises :class:`NotFound` naming ρ* and its gap.
    """
    samples = _integer(samples, "openness needs at least one probe sample; the count")
    if samples < 1:
        raise ParamOutOfRange(f"openness needs at least one probe sample, got {samples!r}")
    rho, gaps = _vertex_probes(decomp, rng_from(seed), samples)
    least = gaps.min(axis=-1)
    if not (least > UNANIMITY_TOL).all():
        k = int(np.argmin(least > UNANIMITY_TOL))
        raise NotFound(
            f"vertex probe {k} of the proved log-ratio ball of radius {rho!r} lost "
            f"strict unanimity: its smallest gap is {float(least[k])!r}"
        )
    return OpennessCertificate(
        center=decomp,
        radius=float(decomp.parent.p.min() * -np.expm1(-rho)),
        samples=samples,
        min_gap_at_boundary=float(least.min()),
        seed=seed,
        log_ratio_radius=rho,
    )


def tilt_gap_derivative(P: Dist, h: ScoreFn) -> float:
    """d/de at e=0 of the welfare gap of the tilted agent P_e ∝ P·exp(e·h)
    against the fixed pool P.  Equals −Cov_P(h, log P)."""
    return float(_gap_derivatives(P.p, _values(P, h)))


def _gap_derivatives(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stacked :func:`tilt_gap_derivative` of rows p along tilts h (..., m)."""
    return -_cov(p, h, np.log(p))


def tilt_gap_fd(P: Dist, h: ScoreFn) -> float:
    """Central finite difference (step 1e-5) companion to
    :func:`tilt_gap_derivative`: both tilted agents are scored against P in
    one stacked gap call."""
    return float(_gap_fd(P.p, _values(P, h)))


def _gap_fd(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stacked :func:`tilt_gap_fd` of rows p along tilts h (..., m): one
    softmax of the up and down tilts (..., 2, m) and one gap call."""
    step = 1e-5
    tilted = softmax(np.log(p)[..., None, :] + np.array([[step], [-step]]) * h[..., None, :])[0]
    gaps = gap_terms(tilted, p[..., None, :])[0]
    return (gaps[..., 0] - gaps[..., 1]) / (2.0 * step)


def local_unanimity_audit(
    P: Dist, tilts: Sequence[ScoreFn], weights: Weights
) -> tuple[np.ndarray, float]:
    """Per-tilt gap derivatives and their weight-averaged sum.

    The tilts must satisfy sum_i beta_i h_i = 0 at every outcome, within
    ``VALUE_TOL`` (the balanced form any pool witness family can be put
    into); then the weighted derivative sum vanishes identically, so the
    gaps cannot all rise to first order.  Returns (derivatives, weighted_sum).
    """
    if len(tilts) != weights.n:
        raise TiltsNotCentered(
            f"{len(tilts)} tilts but {weights.n} weights"
        )
    if any(h.space != P.space for h in tilts):
        raise SpaceMismatch("tilts must live on the distribution's space")
    derivatives, weighted = _audit(P.p, np.stack([h.f for h in tilts]), weights.beta)
    return derivatives, float(weighted)


def _audit(p: np.ndarray, tilts: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`local_unanimity_audit` of rows p (..., m) with tilts
    (..., n, m) and weights (..., n): the derivatives (..., n) and their
    weighted sums (...); a batch error names the first unbalanced row."""
    worst = np.abs(_combine(beta, tilts)).max(axis=-1)
    if (worst > VALUE_TOL).any():
        row, where = first_row(worst > VALUE_TOL)
        raise TiltsNotCentered(
            f"weighted tilt sum{where} deviates from zero by {float(worst[row]):.3e} "
            f"(tol {VALUE_TOL:.1e})"
        )
    derivatives = _gap_derivatives(p[..., None, :], tilts)
    return derivatives, np.matmul(beta[..., None, :], derivatives[..., None])[..., 0, 0]
