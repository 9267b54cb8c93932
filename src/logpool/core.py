"""Outcome spaces, validated distributions, and information-geometric primitives.

This module is the foundation the rest of the package stands on.  It owns:

* :class:`OutcomeSpace` — a finite set of mutually exclusive outcomes;
* :class:`Dist` — a strictly positive probability vector on a space;
* :class:`Weights` — nonnegative pooling weights summing to one;
* :class:`ScoreFn` — an arbitrary finite real-valued function on a space
  (welfare functions, tilts, indicators, log-profiles before centering);
* entropy / KL divergence / total variation / the P-weighted inner product;
* the binary coarse-graining lower bound on KL;
* seeded RNG plumbing (every random draw in the package flows from a single
  integer seed through ``numpy``'s splittable ``SeedSequence``).

Conventions
-----------
* All entropies and divergences are in nats.
* Wherever products of probabilities appear, work happens in log-space and
  normalization uses the max-shifted log-sum-exp pattern, so peaked inputs
  do not overflow; a log-weight span above about 745 nats still underflows
  (see :func:`dist_from_log_weights`).
* Strict positivity is enforced at construction with a hard error — never a
  silent floor.  Flooring would corrupt every KL value downstream.
* Scalar comparisons default to absolute tolerance ``VALUE_TOL`` (1e-9);
  probability-vector sums must hit 1 within ``NORM_TOL`` (1e-12).  Both are
  overridable per call.
* Outcome subsets ("events") hold integral indices (``2.0`` is 2, ``1.7``
  raises) and are canonicalized to sorted, duplicate-free index tuples so
  every iteration order in reports is deterministic.
* Vector arguments of the scalar functionals are a :class:`ScoreFn` on the
  distribution's space or a bare vector of shape ``(m,)``.

Everything here is immutable after construction and every operation is a pure
function: values are safe to share across threads, and there is no global
state anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyOrFullEvent,
    IndexOutOfRange,
    NonFinite,
    NonPositiveEntry,
    NotNormalized,
    ParamOutOfRange,
    SpaceMismatch,
)

__all__ = [
    "OutcomeSpace",
    "Dist",
    "Weights",
    "ScoreFn",
    "make_dist",
    "dist_from_log_weights",
    "uniform",
    "entropy",
    "kl",
    "tv",
    "expect",
    "cov",
    "inner_p",
    "norm_p",
    "log_sum_exp",
    "event_indices",
    "indicator",
    "coarse_grain_bound",
    "rng_from",
]

#: Default absolute tolerance for comparing computed scalar values.
VALUE_TOL = 1e-9

#: Tolerance on probability-vector normalization sums.
NORM_TOL = 1e-12


def _as_readonly(values: Iterable[float]) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} must be finite everywhere")


def first_row(bad: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first True entry of ``bad`` and " in row i" naming it for
    an error message; a 0-d ``bad`` (one object, B=1) gives ``()`` and ""."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return idx, f" in row {idx[0] if len(idx) == 1 else idx}" if idx else ""


def require_prob_rows(p: np.ndarray) -> None:
    """Validate each row (last axis) of ``p`` as :class:`Dist` does, in its
    order: ``NonFinite``, ``NonPositiveEntry``, then ``NotNormalized`` (sum
    off 1 by more than ``NORM_TOL``).  A batch error names the first bad row.
    """
    # accepts exactly what the checks below accept: NaN fails the min, and
    # an infinite entry the min or the sum
    if p.size and p.min() > 0.0 and np.abs(p.sum(axis=-1) - 1.0).max() <= NORM_TOL:
        return
    finite = np.isfinite(p)
    if not finite.all():
        where = first_row(~finite.all(axis=-1))[1]
        raise NonFinite(f"probability vector{where} must be finite everywhere")
    nonpositive = p <= 0.0
    if nonpositive.any():
        where = first_row(nonpositive.any(axis=-1))[1]
        raise NonPositiveEntry(
            f"distributions must be strictly positive on every outcome{where}"
        )
    totals = p.sum(axis=-1)
    off = np.abs(totals - 1.0) > NORM_TOL
    if off.any():
        row, where = first_row(off)
        total = float(totals[row])
        raise NotNormalized(
            f"probabilities{where} sum to {total!r}, expected 1 within {NORM_TOL}"
        )


def require_weight_rows(beta: np.ndarray) -> None:
    """Validate each row (last axis) of ``beta`` as :class:`Weights` does:
    ``NonFinite``, negative weights (``ParamOutOfRange``), then a sum off 1 by
    more than ``NORM_TOL`` (``NotNormalized``).  A batch error names the first
    bad row."""
    if beta.size and beta.min() >= 0.0 and np.abs(beta.sum(axis=-1) - 1.0).max() <= NORM_TOL:
        return  # the accept set of the checks below, as in require_prob_rows
    finite = np.isfinite(beta)
    if not finite.all():
        raise NonFinite(f"weights{first_row(~finite.all(axis=-1))[1]} must be finite everywhere")
    negative = beta < 0.0
    if negative.any():
        raise ParamOutOfRange(f"weights{first_row(negative.any(axis=-1))[1]} must be nonnegative")
    totals = beta.sum(axis=-1)
    off = np.abs(totals - 1.0) > NORM_TOL
    if off.any():
        row, where = first_row(off)
        total = float(totals[row])
        raise NotNormalized(f"weights{where} sum to {total!r}, expected 1 within {NORM_TOL}")


def _require_length(arr: np.ndarray, size: int, what: str) -> None:
    if arr.shape[0] != size:
        raise DimensionMismatch(
            f"{what} has length {arr.shape[0]}, expected {size}"
        )


@dataclass(frozen=True, slots=True)
class OutcomeSpace:
    """A finite outcome set; ``labels`` are cosmetic and optional."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        size = _integer(self.size, "outcome space size")
        object.__setattr__(self, "size", size)
        if size < 2:
            raise ParamOutOfRange(f"outcome space needs size >= 2, got {size!r}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {self.size} outcomes"
                )
            if len(set(labels)) != len(labels):
                raise ParamOutOfRange("outcome labels must be distinct")

    def label_of(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"o{i}"

    def all_labels(self) -> list[str]:
        return list(self.labels or default_labels(self.size))


@lru_cache(maxsize=16)
def default_labels(size: int) -> tuple[str, ...]:
    """``o0`` ... ``o{size-1}``, the labels of an unlabeled space, built once
    per size."""
    return tuple(f"o{i}" for i in range(size))


def _require_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatch(
            f"values live on different outcome spaces "
            f"({a.space.size} vs {b.space.size} outcomes)"
        )


@dataclass(frozen=True, slots=True)
class Dist:
    """A strictly positive probability distribution on a finite outcome space.

    Construct through :func:`make_dist` (which normalizes raw positive
    weights) or :func:`dist_from_log_weights` (which normalizes in
    log-space).  Direct construction demands an already-normalized vector.
    """

    space: OutcomeSpace
    p: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly(self.p)
        object.__setattr__(self, "p", arr)
        _require_length(arr, self.space.size, "probability vector")
        require_prob_rows(arr)

    @property
    def log_p(self) -> np.ndarray:
        return np.log(self.p)

    def prob_of(self, event: Sequence[int]) -> float:
        return float(self.p[_event_array(self.space, event, allow_full=True)].sum())


@dataclass(frozen=True, slots=True)
class Weights:
    """Nonnegative pooling weights summing to one."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly(self.beta)
        object.__setattr__(self, "beta", arr)
        require_weight_rows(arr)

    @property
    def n(self) -> int:
        return int(self.beta.shape[0])

    @property
    def strict(self) -> bool:
        """True when every weight is strictly positive."""
        return bool(np.all(self.beta > 0.0))

    @staticmethod
    def uniform(n: int) -> "Weights":
        n = _integer(n, "weight count")
        if n < 1:
            raise ParamOutOfRange("need at least one weight")
        return Weights(np.full(n, 1.0 / n))


@dataclass(frozen=True, slots=True)
class ScoreFn:
    """A finite real-valued function on an outcome space."""

    space: OutcomeSpace
    f: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_readonly(self.f)
        object.__setattr__(self, "f", arr)
        _require_length(arr, self.space.size, "score function")
        _require_finite(arr, "score function")

    @staticmethod
    def zero(space: OutcomeSpace) -> "ScoreFn":
        return ScoreFn(space, np.zeros(space.size))


def _values(P: Dist, f) -> np.ndarray:
    """The values of ``f`` on P's space: a ScoreFn on that space, or a finite
    bare vector of shape (m,); anything else raises."""
    if isinstance(f, ScoreFn):
        _require_same_space(P, f)
        return f.f
    arr = np.asarray(f, dtype=float)
    if arr.shape != (P.space.size,):
        raise DimensionMismatch(f"score vector has shape {arr.shape}, expected ({P.space.size},)")
    _require_finite(arr, "score vector")
    return arr


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def make_dist(space: OutcomeSpace, raw: Iterable[float]) -> Dist:
    """Normalize strictly positive raw weights into a :class:`Dist`.

    Raises :class:`NonPositiveEntry` on any entry <= 0 — zeros are rejected
    outright rather than handled by support reduction.
    """
    arr = np.array(list(raw) if not isinstance(raw, np.ndarray) else raw, dtype=float)
    _require_length(arr, space.size, "raw weight vector")
    _require_finite(arr, "raw weight vector")
    if (arr <= 0.0).any():
        raise NonPositiveEntry("raw weights must all be > 0")
    return Dist(space, normalize_rows(arr))


def normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Each row (last axis) of positive ``raw`` divided by its sum, twice: the
    second pass pins the sum to 1 within float rounding.  Each row is
    validated as :class:`Dist` validates it."""
    p = raw / raw.sum(axis=-1, keepdims=True)
    p = p / p.sum(axis=-1, keepdims=True)
    require_prob_rows(p)
    return p


def dist_from_log_weights(space: OutcomeSpace, log_w: Iterable[float]) -> Dist:
    """Exponentiate-and-normalize with a max shift (softmax).

    The entry form every pooled/tilted distribution in the package goes
    through.  The max shift keeps any finite log-weights from overflowing,
    but a span (max - min) above about 745 nats underflows the smallest
    entry to 0 and raises :class:`NonPositiveEntry`.
    """
    lw = np.asarray(log_w, dtype=float).reshape(-1)
    _require_length(lw, space.size, "log-weight vector")
    return Dist(space, softmax(lw)[0])


def softmax(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted softmax over the last axis of ``log_w`` (..., m): returns
    ``p``, normalized twice to pin each row sum to 1, and each row's log-sum-exp
    ``log_z`` (...).  A non-finite log-weight raises :class:`NonFinite`, and
    each row of ``p`` is validated as :class:`Dist` validates it."""
    _require_finite(log_w, "log-weight vector")
    shift = log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w - shift)
    total = w.sum(axis=-1, keepdims=True)
    p = w / total
    p = p / p.sum(axis=-1, keepdims=True)
    require_prob_rows(p)
    return p, (shift + np.log(total))[..., 0]


def uniform(space: OutcomeSpace) -> Dist:
    return Dist(space, np.full(space.size, 1.0 / space.size))


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------

def log_sum_exp(values: Iterable[float]) -> float:
    """log sum_i exp(values_i), max-shifted; -inf entries (zero weights) are
    allowed, an empty input or a NaN or +inf entry raises."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ParamOutOfRange("log_sum_exp needs at least one value")
    if not (arr < np.inf).all():  # NaN compares false too
        raise NonFinite("log_sum_exp values must be finite or -inf")
    shift = arr.max()
    if shift == -np.inf:  # all weights zero; the max shift would make nan
        return -np.inf
    return float(shift + np.log(np.exp(arr - shift).sum()))


def entropy(P: Dist) -> float:
    """Shannon entropy in nats; lies in [0, log m]."""
    return float(-(P.p * P.log_p).sum())


def kl(P: Dist, Q: Dist) -> float:
    """KL divergence sum_o P(o) log(P(o)/Q(o)) in nats; >= 0, 0 iff P=Q."""
    _require_same_space(P, Q)
    return float((P.p * (P.log_p - Q.log_p)).sum())


def tv(P: Dist, Q: Dist) -> float:
    """Total variation distance (half the L1 distance)."""
    _require_same_space(P, Q)
    return float(_tv_rows(P.p, Q.p))


def _tv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`tv` of rows a and b over the last axis (..., m), in long double
    when either side is."""
    return 0.5 * np.abs(a - b).sum(axis=-1)


def expect(P: Dist, f) -> float:
    return float((P.p * _values(P, f)).sum())


def cov(P: Dist, f, g) -> float:
    """Covariance under P, computed from centered values for stability."""
    return float(_cov(P.p, _values(P, f), _values(P, g)))


def _cov(p: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`cov` of rows f and g under rows p, over the last axis (..., m)."""
    fc = f - (p * f).sum(axis=-1, keepdims=True)
    gc = g - (p * g).sum(axis=-1, keepdims=True)
    return (p * fc * gc).sum(axis=-1)


def _combine(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i coef_i * rows_i over rows (..., n, m), added up row by row as a loop would."""
    total = np.zeros(rows.shape[:-2] + rows.shape[-1:])
    for i in range(rows.shape[-2]):
        total = total + coef[..., i, None] * rows[..., i, :]
    return total


def inner_p(P: Dist, f, g) -> float:
    """The P-weighted inner product sum_o P(o) f(o) g(o)."""
    return float((P.p * _values(P, f) * _values(P, g)).sum())


def norm_p(P: Dist, f) -> float:
    """The norm induced by :func:`inner_p`."""
    return float(np.sqrt(max(inner_p(P, f, f), 0.0)))


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def event_indices(
    space: OutcomeSpace, event: Sequence[int], *, allow_full: bool = False
) -> tuple[int, ...]:
    """Canonicalize an outcome subset to a sorted duplicate-free index tuple.

    Rejects empty events always, and full events unless ``allow_full``; a
    non-integral entry is named, else an out-of-range event names its
    smallest out-of-range index.
    """
    return tuple(_event_array(space, event, allow_full).tolist())


def _event_array(space: OutcomeSpace, event, allow_full: bool) -> np.ndarray:
    """:func:`event_indices` as a sorted duplicate-free int64 array."""
    try:
        values = event if isinstance(event, (np.ndarray, list, tuple)) else list(event)
        raw = np.asarray(values)
    except (TypeError, ValueError):  # a scalar or None; ragged nesting
        raw = None
    if raw is None or raw.ndim != 1:
        raise IndexOutOfRange(f"event {event!r} is not a flat sequence of outcome indices")
    if raw.dtype.kind not in "iub":  # floats, beyond-int64 ints: no truncation
        # a mixed sequence may have become strings: name the entry as given
        for v in raw.tolist() if isinstance(values, np.ndarray) else values:
            if not _is_integral(v):
                raise IndexOutOfRange(f"outcome index {v!r} is not an integer")
    dtype = np.uint64 if raw.dtype.kind == "u" else np.int64  # no unsigned index wraps
    try:
        idx = np.sort(np.asarray(values, dtype=dtype))
        bad = idx[(idx < 0) | (idx >= space.size)].tolist()
    except OverflowError:  # an index beyond int64 is out of range
        bad = sorted(i for i in map(int, values) if not 0 <= i < space.size)
    if bad:
        raise IndexOutOfRange(f"outcome index {bad[0]} outside [0, {space.size})")
    if idx.size == 0:
        raise EmptyOrFullEvent("event must be nonempty")
    idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))].astype(np.int64, copy=False)
    if not allow_full and idx.size == space.size:
        raise EmptyOrFullEvent("event must be a proper subset of the outcomes")
    return idx


def _is_integral(v) -> bool:
    try:
        return bool(v == int(v))
    except (TypeError, ValueError, OverflowError):
        return False


def _integer(value, what: str, error: type[Exception] = ParamOutOfRange) -> int:
    """``value`` as an int if it is integral (``2.0`` and ``np.int64(2)`` are
    2, a bool is not), else ``error`` saying that ``what`` must be an integer.
    Counts raise :class:`ParamOutOfRange`, indices :class:`IndexOutOfRange`."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)) or not _is_integral(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def indicator(space: OutcomeSpace, event: Sequence[int]) -> ScoreFn:
    f = np.zeros(space.size)
    f[_event_array(space, event, allow_full=True)] = 1.0
    return ScoreFn(space, f)


def coarse_grain_bound(
    P: Dist, Q: Dist, event: Sequence[int]
) -> tuple[float, float]:
    """KL(P||Q) and its two-cell coarse-graining lower bound over ``event``.

    Returns ``(kl_value, binary_bound)`` where the bound collapses the space
    to {event, complement}; ``kl_value >= binary_bound`` always, with
    equality exactly when P/Q is constant on the event and on its complement.
    """
    _require_same_space(P, Q)
    mask = np.zeros(P.space.size, dtype=bool)
    mask[_event_array(P.space, event, allow_full=False)] = True
    pa = float(P.p[mask].sum())
    pac = float(P.p[~mask].sum())
    qa = float(Q.p[mask].sum())
    qac = float(Q.p[~mask].sum())
    bound = pa * np.log(pa / qa) + pac * np.log(pac / qac)
    return kl(P, Q), float(bound)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def rng_from(seed: int, *path: int) -> np.random.Generator:
    """A deterministic generator keyed by (seed, *path).

    All randomness in the package flows through this helper so a single
    CLI-level seed reproduces every draw; no wall clock, no OS entropy.
    Distinct paths give independent streams.  A seed or path entry that is
    negative or not an integer (``2.0`` is 2; ``1.7`` and ``True`` are not)
    raises :class:`ParamOutOfRange`.
    """
    key = tuple(_integer(x, "a seed or path entry") for x in (seed, *path))
    if min(key) < 0:
        raise ParamOutOfRange(f"seed and path must be non-negative, got {seed!r}, {path!r}")
    return np.random.default_rng(np.random.SeedSequence(entropy=key[0], spawn_key=key[1:]))
