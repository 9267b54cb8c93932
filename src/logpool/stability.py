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
    cov,
    require_prob_rows,
    softmax,
    uniform,
    _rng_streams,
)
from .errors import (
    NotFound, NotStrictlyUnanimous, ParamOutOfRange, SpaceMismatch, TiltsNotCentered,
)
from .pooling import Decomposition, POOL_REVALIDATION_TOL, require_pool_witness
from .welfare import UNANIMITY_TOL, gap_terms, unanimity_report, welfare_gap

__all__ = [
    "transport_rows",
    "transport",
    "transport_decomposition",
    "OpennessCertificate",
    "certify_openness",
    "tilt_gap_derivative",
    "tilt_gap_fd",
    "local_unanimity_audit",
    "uniform_no_gain",
]

#: Probe coordinates must stay inside (POSITIVITY_FLOOR, 1) when sampling
#: targets near a distribution; keeps every probe strictly positive.
POSITIVITY_FLOOR = 1e-9

#: Centered directions drawn per probe stream; the first that fits is used.
PROBE_TRIES = 64

#: Bisection steps of :func:`certify_openness` on the tv radius in (0, 1/2).
BISECTION_STEPS = 18


def transport_rows(children: np.ndarray, base: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Stacked transport: the softmax of (log C + log T) − log P over the last
    axis, for children C, base P and target T broadcast together (..., m).
    Rows are not validated."""
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


def transport_decomposition(decomp: Decomposition, target: Dist) -> Decomposition:
    """Move a log-pool decomposition onto ``target`` exactly.

    Every child is transported with base = the current parent; the result
    re-validates as a decomposition of ``target`` with the same weights.
    """
    if target.space != decomp.space:
        raise SpaceMismatch("target must live on the decomposition's space")
    moved = decomp.children
    if not np.array_equal(decomp.parent.p, target.p):
        rows = transport_rows(np.stack([c.p for c in moved]), decomp.parent.p, target.p)
        moved = tuple(Dist(decomp.space, row) for row in rows)
    return Decomposition(
        target, moved, decomp.weights, decomp.pool_kind, tol=POOL_REVALIDATION_TOL
    )


def _tv_directions(rng: np.random.Generator, m: int):
    """:data:`PROBE_TRIES` centered directions (PROBE_TRIES, m), drawn in
    order, and their L1 norms: what a probe at any radius scales."""
    d = rng.standard_normal((PROBE_TRIES, m))
    d = d - d.mean(axis=-1, keepdims=True)
    return d, np.abs(d).sum(axis=-1)


def _at_radius(base: np.ndarray, d: np.ndarray, l1: np.ndarray, radius: float):
    """Scale directions (..., tries, m) to tv ``radius`` around ``base`` and
    keep each stack's first draw with every coordinate in (POSITIVITY_FLOOR,
    1): returns the normalized targets (..., m) and whether one fit (...)."""
    p = base + d * (2.0 * radius / l1)[..., None]
    fits = (l1 != 0.0) & (p > POSITIVITY_FLOOR).all(axis=-1) & (p < 1.0).all(axis=-1)
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
    loses strict unanimity.

    This is sampled evidence with a seed and sample count, not a proof: the
    guarantee that *some* positive radius exists is the theorem's job; the
    certificate records how far probing got.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ParamOutOfRange(
            f"openness needs an integer count of at least one probe sample, got {samples!r}"
        )
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

    def probe(radius: float) -> tuple[bool, float]:
        with np.errstate(divide="ignore", invalid="ignore"):
            targets, found = _at_radius(decomp.parent.p, d, l1, radius)
        if not found.all():
            return False, np.inf
        require_prob_rows(targets)
        moved = transport_rows(children, decomp.parent.p, targets[:, None, :])
        require_prob_rows(moved)
        require_pool_witness(moved, decomp.weights.beta, targets, POOL_REVALIDATION_TOL)
        gaps = gap_terms(moved, targets[:, None, :])[0]
        return bool((gaps > UNANIMITY_TOL).all()), float(gaps.min(initial=np.inf))

    lo, lo_gap = 0.0, 0.0
    hi = 0.5
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        ok, gap = probe(mid)
        if ok:
            lo, lo_gap = mid, gap
        else:
            hi = mid
    if lo == 0.0:
        raise NotFound(
            "no positive radius survived probing; this contradicts strict "
            "unanimity of the input and indicates a bug"
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
    return -cov(P, h, P.log_p)


def tilt_gap_fd(P: Dist, h: ScoreFn) -> float:
    """Central finite difference (step 1e-5) companion to
    :func:`tilt_gap_derivative`: both tilted agents are scored against P in
    one stacked gap call."""
    step = 1e-5
    tilted = softmax(P.log_p + np.array([[step], [-step]]) * h.f)[0]
    require_prob_rows(tilted)
    up, down = gap_terms(tilted, P.p)[0]
    return float((up - down) / (2.0 * step))


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
    combined = np.zeros(P.space.size)
    for beta_i, h in zip(weights.beta, tilts):
        if h.space != P.space:
            raise SpaceMismatch("tilts must live on the distribution's space")
        combined += beta_i * h.f
    worst = float(np.max(np.abs(combined)))
    if worst > VALUE_TOL:
        raise TiltsNotCentered(
            f"weighted tilt sum deviates from zero by {worst:.3e} (tol {VALUE_TOL:.1e})"
        )
    derivatives = np.array([tilt_gap_derivative(P, h) for h in tilts])
    return derivatives, float(weights.beta @ derivatives)


def uniform_no_gain(R: Dist) -> float:
    """The welfare gap of R against the uniform pool; always <= 0.

    Equals −(KL(R‖U) + KL(U‖R)), so it vanishes exactly when R is uniform:
    no agent strictly gains from pooling into indifference.
    """
    return welfare_gap(R, uniform(R.space))
