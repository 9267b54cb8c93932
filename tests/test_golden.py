"""Verification reports against committed golden copies.

``golden/verify_all_seed42.json`` is the report ``logpool verify all --seed 42``
wrote before the pool and gap computations moved onto stacked-array kernels.
The ``verify_<suite>_seed<s>[_samples3].json`` reports were written by
``logpool verify <suite> --seed s [--samples 3]`` before the suites' instance
loops were batched (``persona``'s before that module moved onto one profile
matrix); ``--samples 3`` leaves most shape groups with a single instance.
Check names, verdicts and sample counts must match exactly.  Each value may
drift by at most min(1e-12, |tolerance|), so a check with tolerance 0 must
reproduce its value bit for bit.  A wider drift is a golden update,
made on purpose and recorded in CHANGES.md, never a silent re-generation.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from logpool.suites import run_suite

GOLDEN = Path(__file__).parent / "golden"

SUITES = ("pools", "welfare", "constructions", "factorize", "stability", "persona")

CASES = [("all", 42, None)] + [
    (suite, seed, samples)
    for suite in SUITES
    for seed, samples in ((0, None), (7, None), (42, 3))
]


def _golden_path(suite: str, seed: int, samples: int | None) -> Path:
    suffix = "" if samples is None else f"_samples{samples}"
    return GOLDEN / f"verify_{suite}_seed{seed}{suffix}.json"


@pytest.mark.parametrize(
    "suite,seed,samples", CASES, ids=[_golden_path(*case).stem for case in CASES]
)
def test_verify_report_matches_the_golden_report(suite, seed, samples):
    golden = json.loads(_golden_path(suite, seed, samples).read_text())
    assert golden["suite"] == suite and golden["seed"] == seed
    want = {c["name"]: c for c in golden["checks"]}
    got = {c["name"]: c for c in map(asdict, run_suite(suite, seed, samples))}
    assert sorted(got) == sorted(want)
    for name, row in want.items():
        now = got[name]
        assert (now["passed"], now["samples"]) == (row["passed"], row["samples"]), name
        assert now["tolerance"] == row["tolerance"], name
        bound = min(1e-12, abs(row["tolerance"]))
        assert abs(now["value"] - row["value"]) <= bound, (name, now["value"], row["value"])
