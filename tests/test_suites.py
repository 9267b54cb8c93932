"""The verification-suite registry: what each suite holds, and how the
``samples`` and ``tolerance`` overrides reach its checks."""

import operator
import sys

import numpy as np
import pytest

from logpool import ParamOutOfRange, UnknownSuite, core
from logpool.suites import _CHECKS, SUITE_NAMES, _Check, run_suite

CHECK_COUNTS = {
    "pools": 4,
    "welfare": 5,
    "constructions": 4,
    "factorize": 4,
    "stability": 4,
    "persona": 6,
}

#: The fixed catalogs (registered with 0 samples) and the sizes they report.
CATALOG_SIZES = {
    "constructions.cyclic_uniform_pool_and_margins": 12,
    "constructions.unanimity_threshold_exists": 9,
    "factorize.depressed_subagent_loses": 11,
    "persona.counteragent_weight_forced_up": 1,
}


def test_each_suite_registers_its_checks_once_under_its_prefix():
    assert {suite: len(_CHECKS[suite]) for suite in SUITE_NAMES} == CHECK_COUNTS
    names = [check.name for suite in SUITE_NAMES for check in _CHECKS[suite]]
    assert len(set(names)) == len(names) == sum(CHECK_COUNTS.values())
    for suite in SUITE_NAMES:
        assert all(check.name.startswith(suite + ".") for check in _CHECKS[suite])
    catalogs = {c.name for suite in SUITE_NAMES for c in _CHECKS[suite] if c.samples == 0}
    assert catalogs == set(CATALOG_SIZES)


#: Resizable checks whose instances all have one shape (two outcomes, the
#: binary census grid, the peaked grid, the vertex probes of two fixed
#: balls), so they draw no sizes.
FIXED_SHAPES = {
    "welfare.binary_closed_form",
    "welfare.binary_census",
    "constructions.peaked_sum_negative_with_slope",
    "stability.unanimity_survives_in_a_ball",
}


def test_randomized_checks_declare_their_size_ranges_and_catalogs_none():
    """A check's size ranges are part of its registration: each a ``[lo,
    hi)`` pair of integers with lo < hi, and absent exactly on the fixed
    catalogs and the fixed-shape checks."""
    for check in (c for suite in SUITE_NAMES for c in _CHECKS[suite]):
        if check.samples == 0 or check.name in FIXED_SHAPES:
            assert check.sizes == (), check.name
        else:
            assert check.sizes, check.name
            assert all(
                isinstance(lo, int) and isinstance(hi, int) and lo < hi for lo, hi in check.sizes
            ), check.name


def test_overrides_reach_every_check_but_leave_catalog_sizes_fixed():
    results = run_suite("all", 5, samples=2, tolerance=0.5)
    names = [check.name for suite in SUITE_NAMES for check in _CHECKS[suite]]
    assert [r.name for r in results] == names
    assert all(r.tolerance == 0.5 for r in results)
    for r in results:
        if r.name in CATALOG_SIZES:
            assert r.samples == CATALOG_SIZES[r.name], r.name
        elif r.name != "constructions.peaked_sum_negative_with_slope":
            assert r.samples == 2, r.name  # the peaked grid reports what it found


@pytest.mark.parametrize("samples", [0, -1])
def test_run_suite_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ParamOutOfRange):
        run_suite("pools", 0, samples=samples)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("mystery", 0)


#: Per suite at seed 42: ``Dist`` constructions and stacked-kernel calls
#: before the instance loops were batched, and the most allowed now.  A
#: batched check draws, validates, pools and scores a whole (m, n) shape
#: group at once, so kernel calls scale with
#: the shape groups (up to 42 per check), not the instances; ``stability``
#: scores all the vertex probes of each of its two openness balls in one call.
#: The ``Dist``s left in ``factorize`` are the fixed parent-benefit catalog's,
#: and in ``constructions`` the instances the threshold catalog re-checks at
#: each threshold it finds (the cyclic catalog and the grid walk build none).
#: ``generators`` counts every ``rng_from`` call the suite makes.  Its
#: "before" is the count when each instance drew from its own stream.  Now a
#: check with an instance count builds its one stream and draws every
#: instance from it, so the bound is one per such check.
#: ``normalize_rows`` counts
#: normalizations: a shape group's generator call normalizes its draws once.
#: ``persona`` draws its instances as rows, with no ``random_decomposition``,
#: and solves its span bases with one stacked ``np.linalg.svd`` (``svd``) per
#: shape group and basis; its ``Dist``s are the engineered counteragent's.
BATCHING_BOUNDS = {
    # suite: {counter: (count before batching, bound now)}
    "pools": {
        "Dist": (3503, 350), "log_pool_arrays": (640, 192), "generators": (660, 4),
        "normalize_rows": (660, 140),
    },
    "welfare": {
        "Dist": (2021, 202), "gap_terms": (801, 80), "generators": (800, 5),
        "normalize_rows": (602, 40),
    },
    "constructions": {"Dist": (162, 40), "generators": (80, 2)},
    "factorize": {"Dist": (1562, 100), "generators": (220, 3), "normalize_rows": (281, 110)},
    "stability": {
        "Dist": (3328, 100), "gap_terms": (534, 13), "generators": (373, 4),
        "normalize_rows": (471, 120),
    },
    "persona": {
        "Dist": (1766, 10), "random_decomposition": (280, 0), "svd": (249, 120),
        "generators": (480, 5),
    },
}


@pytest.mark.parametrize("suite", sorted(BATCHING_BOUNDS))
def test_batched_suites_build_few_objects_and_call_each_kernel_per_group(suite, monkeypatch):
    import logpool
    from logpool import constructions, core, pooling, welfare

    counts = dict.fromkeys(BATCHING_BOUNDS[suite], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    if "Dist" in counts:
        monkeypatch.setattr(core.Dist, "__post_init__", counted("Dist", core.Dist.__post_init__))
    modules = [logpool, *(m for k, m in sys.modules.items() if k.startswith("logpool."))]
    kernels = {
        "log_pool_arrays": pooling.log_pool_arrays,
        "gap_terms": welfare.gap_terms,
        "normalize_rows": core.normalize_rows,
        "random_decomposition": constructions.random_decomposition,
    }

    rebind = {fn: counted(name, fn) for name, fn in kernels.items() if name in counts}
    rebind[core.rng_from] = counted("generators", core.rng_from)
    # rebind every module-level reference, wherever it was imported
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in rebind:
                monkeypatch.setattr(module, attr, rebind[value])
    if "svd" in counts:
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    run_suite(suite, 42)
    for name, (before, bound) in BATCHING_BOUNDS[suite].items():
        assert counts[name] <= bound, (name, counts[name], before)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_appending_a_check_leaves_every_other_checks_report_alone(suite, monkeypatch):
    """A check draws from its own stream, keyed by its place in its suite,
    so a new check at the end of any suite moves no other check's report."""
    before = run_suite("all", 11)

    def dummy(run):
        for _, count in run.groups():
            run.rng.standard_normal((count, 1000))
        return 0.0

    check = _Check(f"{suite}.dummy", 50, 0.0, operator.le, "dummy", ((2, 9),), dummy)
    monkeypatch.setitem(_CHECKS, suite, [*_CHECKS[suite], check])
    after = run_suite("all", 11)
    assert [r for r in after if r.name != check.name] == before
    assert len(after) == len(before) + 1


def _result(suite, name, seed=3):
    (result,) = [r for r in run_suite(suite, seed) if r.name == name]
    return result


def test_a_covariance_sign_mismatch_fails_with_the_measured_error(monkeypatch):
    """Adding 0.5 to each covariance flips the sign verdict of every row whose
    mean shift lies in [-0.5, 0); the check then reports the largest error it
    measured, 0.5 plus rounding, not a stand-in value."""
    from logpool import suites

    covariance_terms = suites.covariance_terms
    monkeypatch.setattr(suites, "covariance_terms", lambda *a: covariance_terms(*a) + 0.5)
    result = _result("welfare", "welfare.covariance_equals_mean_shift")
    assert not result.passed
    assert result.value == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "suite,name",
    [
        ("constructions", "constructions.cyclic_uniform_pool_and_margins"),
        ("factorize", "factorize.fixed_children_reconstructs"),
        ("persona", "persona.projection_gain_pythagoras"),
    ],
)
def test_a_failed_side_condition_keeps_the_measured_value(monkeypatch, suite, name):
    """Each side condition is broken after the statistic is computed (the
    covariance criterion misses every gain, a prescribed child changes after
    the family is built, the enlarged span loses): the check fails, and its
    value is the one the unbroken run measures."""
    from logpool import factorize, persona, suites

    measured = _result(suite, name)
    assert measured.passed and measured.value != 1.0
    if suite == "constructions":
        monkeypatch.setattr(suites, "covariance_terms", lambda *a: np.full(a[1].shape[:-1], -1.0))
    elif suite == "factorize":
        balanced = factorize._balanced_children

        def moved_fixed(parent, beta, fixed, k, draws):
            children = balanced(parent, beta, fixed, k, draws)
            fixed *= 1.0 + 1e-9  # the children hold their own copy
            return children

        monkeypatch.setattr(factorize, "_balanced_children", moved_fixed)
    else:
        projection_gain = persona._projection_gain

        def lost(*args):
            return {**projection_gain(*args), "gain": np.full(len(args[0]), -1.0)}

        monkeypatch.setattr(persona, "_projection_gain", lost)
    result = _result(suite, name)
    assert not result.passed
    assert result.value == measured.value


def test_a_tilt_derivative_below_the_floor_is_scored_against_it(monkeypatch):
    """With every analytic derivative scaled below 1e-3, each drawn row is
    still scored, by its error over the 1e-3 floor, and no row is redrawn:
    the check's rows are its stream's draws, one per group, in order."""
    from logpool import stability
    from logpool.constructions import random_probs
    from logpool.suites import _Run

    derivatives, fd, seen = stability._gap_derivatives, stability._gap_fd, []

    def small(p, h):
        analytic = derivatives(p, h) * 1e-6
        assert (np.abs(analytic) < 1e-3).all()
        if h.ndim == 2:  # the tilt check's (B, m) rows, not the audit's (B, n, m)
            seen.append((p, h, np.abs(fd(p, h) - analytic) / 1e-3))
        return analytic

    monkeypatch.setattr(stability, "_gap_derivatives", small)
    name = "stability.tilt_derivative_matches_finite_difference"
    result = _result("stability", name)
    assert not result.passed
    assert result.value == max(float(err.max()) for _, _, err in seen)

    check_id = [c.name for c in _CHECKS["stability"]].index(name)
    rng = core.rng_from(3, SUITE_NAMES.index("stability"), check_id)
    groups = _Run(120, 1e-6, rng, ((2, 9),)).groups()
    assert len(groups) == len(seen)
    for ((m,), B), (p, h, _) in zip(groups, seen):
        assert np.array_equal(p, random_probs(rng, m, batch=(B,)))
        assert np.array_equal(h, rng.standard_normal((B, m)))
    assert sum(B for _, B in groups) == result.samples == 120


def test_a_non_finite_tolerance_is_out_of_range():
    for tolerance in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParamOutOfRange):
            run_suite("welfare", 0, tolerance=tolerance)
