"""The verification-suite registry: what each suite holds, and how the
``samples`` and ``tolerance`` overrides reach its checks."""

import sys

import numpy as np
import pytest

from logpool import ParamOutOfRange, UnknownSuite
from logpool.suites import _CHECKS, SUITE_NAMES, run_suite

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
    "stability.unanimity_survives_in_a_ball": 2,
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
#: binary census grid, the peaked grid), so they draw no sizes.
FIXED_SHAPES = {
    "welfare.binary_closed_form",
    "welfare.binary_census",
    "constructions.peaked_sum_negative_with_slope",
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
#: batched check draws each instance from its own stream but validates, pools
#: and scores a whole (m, n) shape group at once, so kernel calls scale with
#: the shape groups (up to 42 per check), not the instances; most calls left
#: in ``stability`` are one per bisection step of each openness certificate.
#: The ``Dist``s left in ``factorize`` are the fixed parent-benefit catalog's,
#: and in ``constructions`` the instances the threshold catalog re-checks at
#: each threshold it finds (the cyclic catalog and the grid walk build none).
#: ``rng_from`` counts the scalar stream constructions: a check builds its
#: instances' streams in one batch, attempt-0 streams of retry loops
#: included, so the calls left are the retries themselves (the tilt check's
#: redraws below a derivative of 1e-3, and the factorization and persona
#: retries, none at seed 42).  ``normalize_rows`` counts
#: normalizations: a shape group's generator call normalizes its draws once.
#: ``persona`` draws its instances as rows, with no ``random_decomposition``,
#: and solves its span bases with one stacked ``np.linalg.svd`` (``svd``) per
#: shape group and basis; its ``Dist``s are the engineered counteragent's.
BATCHING_BOUNDS = {
    # suite: {counter: (count before batching, bound now)}
    "pools": {
        "Dist": (3503, 350), "log_pool_arrays": (640, 192), "rng_from": (660, 0),
        "normalize_rows": (660, 140),
    },
    "welfare": {
        "Dist": (2021, 202), "gap_terms": (801, 80), "rng_from": (800, 0),
        "normalize_rows": (602, 40),
    },
    "constructions": {"Dist": (162, 40), "rng_from": (80, 0)},
    "factorize": {"Dist": (1562, 100), "rng_from": (360, 10), "normalize_rows": (281, 110)},
    "stability": {
        "Dist": (3328, 100), "gap_terms": (534, 60), "rng_from": (373, 10),
        "normalize_rows": (471, 120),
    },
    "persona": {
        "Dist": (1766, 10), "random_decomposition": (280, 0), "svd": (249, 120),
        "rng_from": (480, 10),
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
        "rng_from": core.rng_from,
        "normalize_rows": core.normalize_rows,
        "random_decomposition": constructions.random_decomposition,
    }
    for name, fn in kernels.items():
        if name in counts:
            # rebind every module-level reference, wherever it was imported
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
    if "svd" in counts:
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    run_suite(suite, 42)
    for name, (before, bound) in BATCHING_BOUNDS[suite].items():
        assert counts[name] <= bound, (name, counts[name], before)
