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
  neither overflow nor underflow.
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
    "VALUE_TOL",
    "NORM_TOL",
    "OutcomeSpace",
    "Dist",
    "Weights",
    "ScoreFn",
    "make_dist",
    "dist_from_log_weights",
    "normalize_rows",
    "softmax",
    "require_prob_rows",
    "require_weight_rows",
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
        if not isinstance(self.size, int) or self.size < 2:
            raise ParamOutOfRange(f"outcome space needs size >= 2, got {self.size!r}")
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
    """The values of ``f`` on P's space: a ScoreFn on that space, or a bare
    vector of shape (m,); anything else raises."""
    if isinstance(f, ScoreFn):
        _require_same_space(P, f)
        return f.f
    arr = np.asarray(f, dtype=float)
    if arr.shape != (P.space.size,):
        raise DimensionMismatch(f"score vector has shape {arr.shape}, expected ({P.space.size},)")
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
    second pass pins the sum to 1 within float rounding.  Not validated."""
    p = raw / raw.sum(axis=-1, keepdims=True)
    return p / p.sum(axis=-1, keepdims=True)


def dist_from_log_weights(space: OutcomeSpace, log_w: Iterable[float]) -> Dist:
    """Exponentiate-and-normalize with a max shift (softmax).

    The entry form every pooled/tilted distribution in the package goes
    through; finite log-weights of any magnitude are safe.
    """
    lw = np.asarray(log_w, dtype=float).reshape(-1)
    _require_length(lw, space.size, "log-weight vector")
    _require_finite(lw, "log-weight vector")
    return Dist(space, softmax(lw)[0])


def softmax(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted softmax over the last axis of ``log_w`` (..., m): returns
    ``p``, normalized twice to pin each row sum to 1, and each row's log-sum-exp
    ``log_z`` (...).  Rows are not validated here."""
    shift = log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w - shift)
    total = w.sum(axis=-1, keepdims=True)
    p = w / total
    p = p / p.sum(axis=-1, keepdims=True)
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
    if arr.max() == -np.inf:  # all weights zero; the max shift would make nan
        return -np.inf
    return float(softmax(arr)[1])


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
    return float(0.5 * np.abs(P.p - Q.p).sum())


def expect(P: Dist, f) -> float:
    return float((P.p * _values(P, f)).sum())


def cov(P: Dist, f, g) -> float:
    """Covariance under P, computed from centered values for stability."""
    fv, gv = _values(P, f), _values(P, g)
    fc, gc = fv - (P.p * fv).sum(), gv - (P.p * gv).sum()
    return float((P.p * fc * gc).sum())


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
    values = event if isinstance(event, (np.ndarray, list, tuple)) else list(event)
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged nesting
        raise IndexOutOfRange(
            f"event {event!r} is not a flat sequence of outcome indices"
        ) from None
    if raw.dtype.kind not in "iub":  # floats, beyond-int64 ints: no truncation
        for v in raw.ravel().tolist():
            if not _is_integral(v):
                raise IndexOutOfRange(f"outcome index {v!r} is not an integer")
    dtype = np.uint64 if raw.dtype.kind == "u" else np.int64  # no unsigned index wraps
    try:
        idx = np.sort(np.asarray(values, dtype=dtype), axis=None)
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
    Distinct paths give independent streams.  A negative seed or path entry
    raises :class:`ParamOutOfRange`.
    """
    key = _key(seed, path)
    return np.random.default_rng(np.random.SeedSequence(entropy=key[0], spawn_key=key[1:]))


def _key(seed: int, path: tuple[int, ...]) -> tuple[int, ...]:
    key = tuple(int(x) for x in (seed, *path))
    if min(key) < 0:
        raise ParamOutOfRange(f"seed and path must be non-negative, got {seed!r}, {path!r}")
    return key


# NumPy's SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _rng_streams(seed: int, *path: int, count: int) -> list[np.random.Generator]:
    """``[rng_from(seed, *path, i) for i in range(count)]``, bit for bit.

    Replays NumPy's ``SeedSequence`` with a pool of 4 words.  The words every
    stream shares (the seed zero-padded to the pool, then the path) are mixed
    once; the last word, the index, is mixed into a (4, count) pool, and
    ``generate_state(4, uint64)`` is one (8, count) pass.  Seeding each
    generator from its ready words skips the per-stream ``SeedSequence``; this
    pays from about 8 streams up.
    """
    key = _key(seed, path)
    words = _words(key[0], 4) + [w for x in key[1:] for w in _words(x)]
    # mixing len(words) >= 4 words makes 4 * len(words) hashmix calls
    shared = np.random.SeedSequence(words).pool.astype(np.uint64)[:, None]
    index = _hashmix(np.arange(count, dtype=np.uint64), _INIT_A, _MULT_A, 4 * len(words), 4)
    pool = (_MIX_L * shared - _MIX_R * index) & _M32  # SeedSequence's mix
    pool ^= pool >> 16
    # 8 uint32 words drawn round-robin from the pool, paired little-endian
    state = _hashmix(np.concatenate([pool, pool]), _INIT_B, _MULT_B, 0, 8)
    seeds = (state[0::2] | state[1::2] << 32).T.copy()
    return [np.random.Generator(np.random.PCG64(_Seeded(row))) for row in seeds]


def _words(x: int, size: int = 1) -> list[int]:
    """``x`` as SeedSequence reads it: little-endian 32-bit words, zero-padded
    to at least ``size`` words."""
    return [(x >> s) & _M32 for s in range(0, max(x.bit_length(), 32 * size), 32)]


def _hashmix(value: np.ndarray, init: int, mult: int, start: int, k: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` (32-bit words in uint64) by its
    running hash constants ``start`` to ``start + k - 1``, one per output row."""
    steps = range(start, start + k + 1)
    hc = np.array([init * pow(mult, j, 1 << 32) & _M32 for j in steps], np.uint64)
    value = (value ^ hc[:-1, None]) * hc[1:, None] & _M32
    return value ^ value >> 16


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose four uint64 PCG64 seed words are already made."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words
