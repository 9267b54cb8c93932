"""Exception hierarchy for the logpool library.

Every failure mode raised by this package derives from :class:`LogPoolError`,
so callers can catch one type at the boundary.  Precondition violations (bad
arguments, mismatched spaces, infeasible parameters) additionally derive from
:class:`InputError`, which is a ``ValueError``; numerical-pathology signals
derive from ``FloatingPointError``.
"""

from __future__ import annotations


class LogPoolError(Exception):
    """Base class for every error raised by logpool."""


class InputError(LogPoolError, ValueError):
    """A caller-supplied value violates a documented precondition."""


# ---------------------------------------------------------------------------
# core: distributions, weights, score functions, events
# ---------------------------------------------------------------------------

class NonPositiveEntry(InputError):
    """A probability vector contains an entry <= 0 (strict positivity is required)."""


class DimensionMismatch(InputError):
    """A vector's length does not match its outcome space."""


class NonFinite(InputError):
    """An input contains NaN or infinity."""


class NotNormalized(InputError):
    """A probability vector does not sum to one within tolerance."""


class SpaceMismatch(InputError):
    """Two values that must share an outcome space do not."""


class LengthMismatch(InputError):
    """Two sequences that must have equal length do not."""


class EmptyOrFullEvent(InputError):
    """An outcome subset must be a nonempty proper subset of the space."""


class IndexOutOfRange(InputError, IndexError):
    """An outcome or child index is outside the valid range."""


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

class NotAPoolWitness(InputError):
    """Claimed children/weights do not pool back to the claimed parent."""


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

class IdentityMismatch(LogPoolError, FloatingPointError):
    """Two algebraically identical computations disagree beyond tolerance.

    This signals numerical pathology in the inputs, not a caller mistake.
    """


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

class ParamOutOfRange(InputError):
    """A scalar parameter is outside its documented open interval."""


class DegenerateWeights(InputError):
    """A weight vector is unusable for the requested construction (e.g. some beta = 1)."""


class NotFound(LogPoolError):
    """A bounded search found nothing, or a seeded probe broke a proved
    bound: a grid search whose target provably exists or an openness vertex
    probe that loses strict unanimity (both implementation bugs), or a
    search whose budget ran out on this input, such as the compensation
    draws.
    """


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

class WeightTooConcentrated(InputError):
    """Fewer than two strictly positive weights; nothing to factor."""


class DistinctnessFailure(LogPoolError):
    """Could not make the constructed children pairwise distinct within the retry budget."""


class PreconditionViolation(InputError):
    """A structural hypothesis of a factorization routine is not met."""


class UniformParent(InputError):
    """The construction needs a non-uniform distribution and got a uniform one."""


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

class NotStrictlyUnanimous(InputError):
    """The decomposition must have every welfare gap strictly positive and does not."""


# ---------------------------------------------------------------------------
# persona
# ---------------------------------------------------------------------------

class DbetaNotZeroSum(InputError):
    """A weight-change vector must sum to zero and does not."""


class DbetaInconsistent(InputError):
    """A weight-change vector contradicts the accompanying scalar arguments."""


class TiltsNotCentered(InputError):
    """Score functions that must be centered (weighted or per-distribution) are not."""


class BudgetViolated(InputError):
    """The realized log-deviation exceeds the stated norm budget."""


class DegenerateSpan(InputError):
    """Every spanning vector is (numerically) zero; no direction to optimize over."""


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class UnknownSuite(InputError):
    """The requested verification suite name does not exist."""


class ParseError(InputError):
    """An input document is not valid JSON or misses required fields."""


class ConfigParse(ParseError):
    """An experiment configuration document is malformed."""


class IoError(LogPoolError):
    """Reading or writing a report/CSV/manifest failed."""


__all__ = [
    name for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, LogPoolError)
]
