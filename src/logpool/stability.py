"""Pool-preserving transport, openness certification, and small-tilt analysis.

Transport reweights every child of a decomposition by the ratio
target/parent, which moves the pooled distribution *exactly* onto the target
(not perturbatively) while keeping the weights.  Built on that, the openness
certifier probes a strictly unanimous decomposition with seeded random
targets on tv-spheres of shrinking radius and reports the largest radius at
which every probe stayed strictly unanimous.

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
    require_prob_rows,
    softmax,
    _combine,
    _cov,
    _integer,
    _rng_streams,
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

#: Probe coordinates must stay above this floor, or above half the center's
#: smallest mass where that is lower, when sampling targets near a
#: distribution; keeps every probe strictly positive.
POSITIVITY_FLOOR = 1e-9

#: Centered directions drawn per probe stream; the first that fits is used.
PROBE_TRIES = 64

#: Bisection steps of :func:`certify_openness` on the tv radius in (0, 1/2);
#: while no radius has passed, halving goes on to the center's smallest mass
#: over 2**BISECTION_STEPS, but never past _MAX_STEPS steps in all.
BISECTION_STEPS = 18

#: The most steps one certification takes.  1/2 over 2**128 (1.5e-39) still
#: certifies the analytic family up to n = 52 with the default samples, and a
#: failing search costs at most 128 / BISECTION_STEPS times the first steps.
_MAX_STEPS = 128


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


def _tv_directions(rng: np.random.Generator, m: int):
    """:data:`PROBE_TRIES` centered directions (PROBE_TRIES, m), drawn in
    order, and their L1 norms: what a probe at any radius scales."""
    d = rng.standard_normal((PROBE_TRIES, m))
    d = d - d.mean(axis=-1, keepdims=True)
    return d, np.abs(d).sum(axis=-1)


def _at_radius(base: np.ndarray, d: np.ndarray, l1: np.ndarray, radius: float):
    """Scale directions (..., tries, m) to tv ``radius`` around ``base`` and
    keep each stack's first draw with every coordinate above the floor
    ``min(POSITIVITY_FLOOR, min(base) / 2)``: returns the normalized targets
    (..., m) and whether one fit (...).  Positive coordinates summing to 1
    are each below 1, so no upper test is needed (one would fail by rounding
    once ``max(base)`` rounds to 1)."""
    floor = min(POSITIVITY_FLOOR, float(base.min()) / 2.0)
    p = base + d * (2.0 * radius / l1)[..., None]
    fits = (l1 != 0.0) & (p > floor).all(axis=-1)
    p = np.take_along_axis(p, fits.argmax(axis=-1)[..., None, None], axis=-2)[..., 0, :]
    return p / p.sum(axis=-1, keepdims=True), fits.any(axis=-1)


@dataclass(frozen=True, slots=True)
class OpennessCertificate:
    """Empirical evidence that strict unanimity survives in a tv-ball.

    ``radius`` is the largest bisection-tested tv radius at which every one
    of ``samples`` seeded probe targets, after exact transport, still had
    all welfare gaps strictly positive; ``min_gap_at_boundary`` is the
    smallest gap observed among those probes.
    """

    center: Decomposition
    radius: float
    samples: int
    min_gap_at_boundary: float
    seed: int

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise NotFound("certificate radius must be positive")
        if not self.min_gap_at_boundary > 0.0:
            raise NotFound("boundary gap must be positive")


def certify_openness(
    decomp: Decomposition, samples: int = 64, seed: int = 0
) -> OpennessCertificate:
    """Bisect for the largest empirically clean tv radius around the parent.

    The input must be strictly unanimous and ``samples`` an integer of at
    least 1: a certificate rests on at least one probe.  Probe directions
    are keyed by (seed, sample index) only, so a run with more samples
    extends — never replaces — the probe set of a run with fewer; certified
    radii can therefore only shrink or hold as ``samples`` grows.  Each step scores
    its probes as one batch: one transport over (samples, n, m), one
    re-pool check at ``POOL_REVALIDATION_TOL`` and one gap computation.  A
    step fails when some sample has no feasible target at its radius or
    loses strict unanimity.  While no step has passed, halving goes on past
    the first ``BISECTION_STEPS`` down to the parent's smallest mass over
    ``2**BISECTION_STEPS``, so a center with tiny masses is probed at its
    own scale, for at most ``_MAX_STEPS`` steps in all.

    This is sampled evidence with a seed and sample count, not a proof: the
    guarantee that *some* positive radius exists is the theorem's job; the
    certificate records how far probing got.
    """
    samples = _integer(samples, "openness needs at least one probe sample; the count")
    if samples < 1:
        raise ParamOutOfRange(f"openness needs at least one probe sample, got {samples!r}")
    base_report = unanimity_report(decomp)
    if not base_report.strictly_unanimous:
        raise NotStrictlyUnanimous(
            "openness certification needs every gap strictly positive; "
            f"min gap is {base_report.min_gap!r}"
        )

    # a probe direction does not depend on the radius, only its rejection
    # does: each sample's stream is drawn once and scaled at every step
    m = decomp.space.size
    d, l1 = np.empty((samples, PROBE_TRIES, m)), np.empty((samples, PROBE_TRIES))
    for s, rng in enumerate(_rng_streams(seed, count=samples)):
        d[s], l1[s] = _tv_directions(rng, m)
    children = np.stack([c.p for c in decomp.children])

    def probe(radius: float) -> tuple[str, float]:
        """Why some sample fails at ``radius`` ("" if none does), and the min gap."""
        with np.errstate(divide="ignore", invalid="ignore"):
            targets, found = _at_radius(decomp.parent.p, d, l1, radius)
        if not found.all():
            return "found no feasible target", np.inf
        require_prob_rows(targets)
        moved = transport_rows(children, decomp.parent.p, targets[:, None, :])
        require_pool_witness(moved, decomp.weights.beta, targets, POOL_REVALIDATION_TOL)
        gaps = gap_terms(moved, targets[:, None, :])[0]
        failed = "" if (gaps > UNANIMITY_TOL).all() else "lost strict unanimity"
        return failed, float(gaps.min(initial=np.inf))

    least = float(decomp.parent.p.min())
    lo, hi, lo_gap, why, steps = 0.0, 0.5, 0.0, "", 0
    floor = least * 2.0**-BISECTION_STEPS
    while steps < BISECTION_STEPS or (lo == 0.0 and hi > floor and steps < _MAX_STEPS):
        mid = 0.5 * (lo + hi)
        failed, gap = probe(mid)
        if failed:
            hi, why = mid, failed
        else:
            lo, lo_gap = mid, gap
        steps += 1
    if lo == 0.0:
        raise NotFound(
            f"no tv radius survived probing down to {hi!r} (1/2 over 2^{steps}), "
            f"where the last probe {why}; the parent's smallest mass is {least!r}"
        )
    return OpennessCertificate(
        center=decomp,
        radius=lo,
        samples=samples,
        min_gap_at_boundary=lo_gap,
        seed=seed,
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
