"""Core types and scalar helpers: construction rules, information quantities,
inner products, events, and the seeded generator tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from logpool import (
    Dist,
    EmptyOrFullEvent,
    IndexOutOfRange,
    LogProfile,
    NonFinite,
    NonPositiveEntry,
    NotNormalized,
    OutcomeSpace,
    ParamOutOfRange,
    ScoreFn,
    Weights,
    coarse_grain_bound,
    cov,
    dist_from_log_weights,
    entropy,
    event_indices,
    expect,
    indicator,
    inner_p,
    kl,
    log_sum_exp,
    make_dist,
    norm_p,
    rng_from,
    tv,
    uniform,
)
from _gen import random_dist
from logpool.core import _rng_streams, normalize_rows, require_weight_rows

SPACE3 = OutcomeSpace(3)
SPACE4 = OutcomeSpace(4, ("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# Spaces, distributions, weights
# ---------------------------------------------------------------------------


def test_outcome_space_rejects_degenerate_sizes():
    with pytest.raises(ParamOutOfRange):
        OutcomeSpace(1)
    with pytest.raises(ParamOutOfRange):
        OutcomeSpace(0)


def test_outcome_space_labels_must_fit_and_be_distinct():
    from logpool import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        OutcomeSpace(3, ("x", "y"))
    with pytest.raises(ParamOutOfRange):
        OutcomeSpace(2, ("x", "x"))
    assert SPACE4.label_of(1) == "b"
    assert OutcomeSpace(2).all_labels() == ["o0", "o1"]


def test_make_dist_normalizes_and_rejects_bad_input():
    d = make_dist(SPACE3, [2.0, 1.0, 1.0])
    assert np.allclose(d.p, [0.5, 0.25, 0.25])
    assert abs(float(d.p.sum()) - 1.0) < 1e-15
    with pytest.raises(NonPositiveEntry):
        make_dist(SPACE3, [1.0, 0.0, 1.0])
    with pytest.raises(NonPositiveEntry):
        make_dist(SPACE3, [1.0, -0.5, 1.0])
    with pytest.raises(NonFinite):
        make_dist(SPACE3, [1.0, np.inf, 1.0])


def test_direct_dist_construction_demands_exact_normalization():
    with pytest.raises(NotNormalized):
        Dist(SPACE3, np.array([0.5, 0.2, 0.2]))
    d = Dist(SPACE3, np.array([0.5, 0.3, 0.2]))
    assert not d.p.flags.writeable


def test_dist_from_log_weights_matches_softmax_shift_invariance():
    logs = np.array([1.0, -2.0, 0.5])
    a = dist_from_log_weights(SPACE3, logs)
    b = dist_from_log_weights(SPACE3, logs + 123.0)
    assert np.allclose(a.p, b.p, atol=1e-15)
    assert np.allclose(a.p, np.exp(logs) / np.exp(logs).sum())


def test_weights_validation():
    with pytest.raises(ParamOutOfRange):
        Weights(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(NotNormalized):
        Weights(np.array([0.5, 0.4]))
    w = Weights.uniform(4)
    assert w.n == 4 and w.strict
    assert not Weights(np.array([1.0, 0.0])).strict


def test_prob_of_event():
    d = make_dist(SPACE3, [0.5, 0.3, 0.2])
    assert d.prob_of([0, 2]) == pytest.approx(0.7, abs=1e-15)
    assert d.prob_of([0, 1, 2]) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Information quantities against the extended-precision oracles
# ---------------------------------------------------------------------------


def test_entropy_and_kl_match_oracles():
    rng = rng_from(101)
    for i in range(50):
        m = int(rng.integers(2, 9))
        space = OutcomeSpace(m)
        p = random_dist(rng, space)
        q = random_dist(rng, space)
        assert entropy(p) == pytest.approx(_oracles.mp_entropy(p.p), abs=1e-13)
        assert kl(p, q) == pytest.approx(_oracles.mp_kl(p.p, q.p), abs=1e-13)


def test_kl_is_nonnegative_and_zero_on_equality():
    rng = rng_from(102)
    space = OutcomeSpace(6)
    p = random_dist(rng, space)
    assert kl(p, p) == 0.0
    q = random_dist(rng, space)
    assert kl(p, q) > 0.0


def test_tv_basic_properties():
    rng = rng_from(103)
    space = OutcomeSpace(5)
    p = random_dist(rng, space)
    q = random_dist(rng, space)
    r = random_dist(rng, space)
    assert tv(p, p) == 0.0
    assert tv(p, q) == tv(q, p)
    assert 0.0 <= tv(p, q) < 1.0
    assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-15


def test_log_sum_exp_is_stable_and_correct():
    vals = np.array([-1000.0, -1000.5, -999.0])
    direct = np.log(np.sum(np.exp(vals - vals.max()))) + vals.max()
    assert log_sum_exp(vals) == pytest.approx(direct, abs=1e-14)
    assert np.isfinite(log_sum_exp(vals))


def test_log_sum_exp_rejects_empty_and_non_finite_input():
    """An empty input used to raise numpy's bare ValueError, and a NaN or
    +inf entry to return nan with a RuntimeWarning."""
    with pytest.raises(ParamOutOfRange):
        log_sum_exp([])
    for bad in ([float("nan")], [0.0, np.inf], [np.inf, -np.inf]):
        with pytest.raises(NonFinite):
            log_sum_exp(bad)
    assert log_sum_exp([0.0, -np.inf]) == 0.0


@pytest.mark.filterwarnings("error")
def test_log_sum_exp_of_all_zero_weights_is_minus_inf():
    """Every entry -inf used to give nan with a RuntimeWarning from the shift."""
    assert log_sum_exp([-np.inf]) == -np.inf
    assert log_sum_exp(np.full(5, -np.inf)) == -np.inf


# ---------------------------------------------------------------------------
# Inner products: the geometry all perturbation analysis uses
# ---------------------------------------------------------------------------


def test_inner_product_is_uncentered_expectation_of_product():
    rng = rng_from(104)
    space = OutcomeSpace(6)
    p = random_dist(rng, space)
    f = rng.standard_normal(6)
    g = rng.standard_normal(6)
    assert inner_p(p, f, g) == pytest.approx(float((p.p * f * g).sum()), abs=1e-15)
    # against the constant 1 it reduces to a plain expectation
    assert inner_p(p, np.ones(6), f) == pytest.approx(expect(p, f), abs=1e-15)


def test_cov_is_centered_and_norm_is_sqrt_of_self_inner():
    rng = rng_from(105)
    space = OutcomeSpace(6)
    p = random_dist(rng, space)
    f = rng.standard_normal(6)
    g = rng.standard_normal(6)
    fc = f - expect(p, f)
    gc = g - expect(p, g)
    assert cov(p, f, g) == pytest.approx(inner_p(p, fc, gc), abs=1e-14)
    assert cov(p, f, np.ones(6)) == pytest.approx(0.0, abs=1e-14)
    assert norm_p(p, f) == pytest.approx(np.sqrt(inner_p(p, f, f)), abs=1e-14)


def test_score_fn_wrappers_accepted_everywhere():
    rng = rng_from(106)
    space = OutcomeSpace(4)
    p = random_dist(rng, space)
    f = ScoreFn(space, rng.standard_normal(4))
    assert expect(p, f) == pytest.approx(expect(p, f.f), abs=1e-16)
    assert norm_p(p, ScoreFn.zero(space)) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda p: expect(p, np.ones((4, 4))),
        lambda p: expect(p, np.ones(5)),
        lambda p: cov(p, np.ones(4), np.ones((1, 4))),
        lambda p: cov(p, [1.0], np.ones(4)),
        lambda p: inner_p(p, np.ones(4), np.ones(3)),
        lambda p: inner_p(p, np.ones((4, 1)), np.ones(4)),
        lambda p: norm_p(p, [1.0]),
        lambda p: norm_p(p, np.ones((2, 4))),
        lambda p: LogProfile(p, np.zeros(5)),  # its own length check raised LengthMismatch
    ],
)
def test_scalar_functionals_reject_vectors_of_the_wrong_shape(call):
    """A bare vector must have shape (m,): ``norm_p(P4, [1.0])`` used to
    broadcast to 1.0 and ``expect(P4, ones((4, 4)))`` to 4.0.  A profile's
    length is checked by the same validator."""
    from logpool import DimensionMismatch

    p = make_dist(SPACE4, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DimensionMismatch, match=r"expected \(4,\)$"):
        call(p)


# ---------------------------------------------------------------------------
# Events and coarse graining
# ---------------------------------------------------------------------------


def test_event_indices_canonicalization_and_rejection():
    assert event_indices(SPACE4, [2, 0, 2]) == (0, 2)
    with pytest.raises(EmptyOrFullEvent):
        event_indices(SPACE4, [])
    with pytest.raises(EmptyOrFullEvent):
        event_indices(SPACE4, [0, 1, 2, 3])
    assert event_indices(SPACE4, [0, 1, 2, 3], allow_full=True) == (0, 1, 2, 3)
    with pytest.raises(IndexOutOfRange):
        event_indices(SPACE4, [4])
    with pytest.raises(IndexOutOfRange):
        event_indices(SPACE4, [-1])


def _event_indices_loop(space, event, allow_full=False):
    """The element-by-element canonicalization ``event_indices`` replaced:
    the reference its array version must agree with."""
    for i in event:
        if isinstance(i, float) and not i.is_integer():
            raise IndexOutOfRange(f"outcome index {float(i)!r} is not an integer")
    idx = sorted({int(i) for i in event})
    for i in idx:
        if i < 0 or i >= space.size:
            raise IndexOutOfRange(f"outcome index {i} outside [0, {space.size})")
    if len(idx) == 0:
        raise EmptyOrFullEvent("event must be nonempty")
    if not allow_full and len(idx) == space.size:
        raise EmptyOrFullEvent("event must be a proper subset of the outcomes")
    return tuple(idx)


def _outcome(fn, *args, **kwargs):
    """A result, or the type and message of the error raised instead."""
    try:
        return fn(*args, **kwargs)
    except (IndexOutOfRange, EmptyOrFullEvent) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "event",
    [
        [9, -3, 7, -1, 4],  # out of range on both sides: names -3
        (12, 5, 9, 7),  # above only: names the smallest, 7
        [2**70, 3],  # beyond int64
        [-(2**70), 9, 1],
        np.array([5, 0, 5, 2, 0]),
        (3, 1, 3, 3, 1),
        np.array([4, 1], dtype=np.int32),
        [],
        (),
        np.array([], dtype=np.int64),
        [0, 1, 2, 3, 4, 5, 6],
        [6, 5, 4, 3, 2, 1, 0, 3],
        range(2, 5),
        {4, 2},
        [1.7],  # non-integral entries used to be truncated: (1,)
        [-0.5],  # (0,)
        [4, float("nan")],  # numpy's bare ValueError
        [9, float("inf"), 2.5],  # named before the out-of-range 9
        [2.0, 0, np.int64(5)],  # integral floats and numpy ints are indices
        np.array([6.0, 2.0, 6.0]),
        np.array([3.0, 0.25]),
    ],
)
@pytest.mark.parametrize("allow_full", [False, True])
def test_event_indices_agrees_with_the_loop_reference(event, allow_full):
    space = OutcomeSpace(7)
    got = _outcome(event_indices, space, event, allow_full=allow_full)
    assert got == _outcome(_event_indices_loop, space, event, allow_full)
    if isinstance(got, tuple) and got and isinstance(got[0], int):
        assert all(type(i) is int for i in got)


def test_event_indices_error_messages():
    space = OutcomeSpace(5)
    with pytest.raises(IndexOutOfRange, match=r"^outcome index -2 outside \[0, 5\)$"):
        event_indices(space, [6, -2, 8, -1])
    with pytest.raises(IndexOutOfRange, match=r"^outcome index 6 outside \[0, 5\)$"):
        event_indices(space, [8, 6, 1])
    with pytest.raises(EmptyOrFullEvent, match="^event must be nonempty$"):
        event_indices(space, np.array([], dtype=int))
    with pytest.raises(EmptyOrFullEvent, match="^event must be a proper subset of the outcomes$"):
        event_indices(space, np.arange(5)[::-1])
    # a uint64 index past int64 used to be named wrapped, as -2**63
    with pytest.raises(IndexOutOfRange, match=r"^outcome index 9223372036854775808 outside \[0, 5\)$"):
        event_indices(space, np.array([2**63], dtype=np.uint64))
    assert event_indices(space, np.array([3, 1, 3], dtype=np.uint64)) == (1, 3)
    # a ragged event used to end in numpy's bare ValueError
    with pytest.raises(
        IndexOutOfRange, match=r"^event \[\[1\], \[2, 3\]\] is not a flat sequence of outcome indices$"
    ):
        event_indices(space, [[1], [2, 3]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 30), max_size=25), st.integers(2, 12), st.booleans())
def test_event_indices_matches_the_loop_reference_on_random_events(event, m, allow_full):
    space = OutcomeSpace(m)
    want = _outcome(_event_indices_loop, space, event, allow_full)
    assert _outcome(event_indices, space, event, allow_full=allow_full) == want
    assert _outcome(event_indices, space, np.array(event, dtype=np.int64), allow_full=allow_full) == want


def test_indicator_vector():
    f = indicator(SPACE4, [1, 3])
    assert f.f.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_coarse_grain_bound_is_a_lower_bound_with_equality_when_constant():
    rng = rng_from(107)
    space = OutcomeSpace(6)
    for _ in range(25):
        p = random_dist(rng, space)
        q = random_dist(rng, space)
        value, bound = coarse_grain_bound(p, q, [0, 2])
        assert value >= bound - 1e-12
    # constant ratio on the event and complement -> equality
    p = make_dist(space, [1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    q = make_dist(space, [2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    value, bound = coarse_grain_bound(p, q, [0, 1])
    assert value == pytest.approx(bound, abs=1e-12)


# ---------------------------------------------------------------------------
# Seeded generator tree
# ---------------------------------------------------------------------------


def test_rng_from_is_deterministic_and_path_split():
    a = rng_from(42, 1, 2).random(8)
    b = rng_from(42, 1, 2).random(8)
    c = rng_from(42, 1, 3).random(8)
    d = rng_from(43, 1, 2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed,path", [(-1, ()), (3, (0, -2)), (-5, (1,))])
def test_rng_from_rejects_negative_keys_as_a_logpool_error(seed, path):
    with pytest.raises(ParamOutOfRange, match="non-negative"):
        rng_from(seed, *path)
    with pytest.raises(ParamOutOfRange, match="non-negative"):
        _rng_streams(seed, *path, count=3)


def _assert_streams_are_rng_from(seed, path, count):
    streams = _rng_streams(seed, *path, count=count)
    assert len(streams) == count
    for i, rng in enumerate(streams):
        want = rng_from(seed, *path, i)
        assert rng.bit_generator.state == want.bit_generator.state, (seed, path, i)
        assert np.array_equal(rng.random(8), want.random(8))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 10**30])
@pytest.mark.parametrize("path", [(), (3,), (2**32, 0), (5, 2**40 + 7, 1), (0, 0, 0, 2**33)])
@pytest.mark.parametrize("count", [0, 1, 500])
def test_batched_streams_are_the_rng_from_streams(seed, path, count):
    _assert_streams_are_rng_from(seed, path, count)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**130),
    st.lists(st.integers(0, 2**70), max_size=4),
    st.integers(0, 40),
)
def test_batched_streams_match_rng_from_on_random_keys(seed, path, count):
    _assert_streams_are_rng_from(seed, tuple(path), count)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_make_dist_always_normalizes(raw):
    d = make_dist(OutcomeSpace(len(raw)), raw)
    assert abs(float(d.p.sum()) - 1.0) <= 1e-12
    assert np.all(d.p > 0.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_kl_to_uniform_is_entropy_deficit(seed):
    rng = rng_from(seed)
    m = int(rng.integers(2, 10))
    space = OutcomeSpace(m)
    p = random_dist(rng, space)
    assert kl(p, uniform(space)) == pytest.approx(
        np.log(m) - entropy(p), abs=1e-12
    )


def test_weight_rows_fail_as_their_weights_would():
    beta = np.full((50, 4), 0.25)
    require_weight_rows(beta)
    for spoil, error, message in (
        (np.nan, NonFinite, "weights must be finite everywhere"),
        (-0.25, ParamOutOfRange, "weights must be nonnegative"),
        (0.5, NotNormalized, "weights sum to 1.25, expected 1 within 1e-12"),
    ):
        bad = beta.copy()
        bad[23, 1] = spoil
        with pytest.raises(error, match=message):
            Weights(bad[23])
        with pytest.raises(error, match="in row 23"):
            require_weight_rows(bad)
        require_weight_rows(np.delete(bad, 23, axis=0))


def test_normalize_rows_is_make_dist_row_by_row():
    raw = rng_from(120).gamma(1.5, 1.0, (40, 7)) + 0.02
    p = normalize_rows(raw)
    for row in range(40):
        assert np.array_equal(p[row], make_dist(OutcomeSpace(7), raw[row]).p)
