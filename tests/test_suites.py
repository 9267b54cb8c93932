"""The verification-suite registry: what each suite holds, and how the
``samples`` and ``tolerance`` overrides reach its checks."""

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
