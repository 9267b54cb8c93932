"""The full verification report at seed 42 against a committed golden copy.

``golden/verify_all_seed42.json`` is the report ``logpool verify all --seed 42``
wrote before the pool and gap computations moved onto stacked-array kernels.
Check names, verdicts and sample counts must match it exactly.  Each value may
drift by at most min(1e-12, |tolerance|), so a check with tolerance 0 must
reproduce its value bit for bit.  A wider drift is a golden update, made on
purpose and recorded in CHANGES.md, never a silent re-generation.
"""

import json
from dataclasses import asdict
from pathlib import Path

from logpool.suites import run_suite

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed42.json"


def test_verify_all_seed42_matches_the_golden_report():
    golden = json.loads(GOLDEN.read_text())
    assert golden["suite"] == "all" and golden["seed"] == 42
    want = {c["name"]: c for c in golden["checks"]}
    got = {c["name"]: c for c in map(asdict, run_suite("all", 42))}
    assert sorted(got) == sorted(want)
    for name, row in want.items():
        now = got[name]
        assert (now["passed"], now["samples"]) == (row["passed"], row["samples"]), name
        assert now["tolerance"] == row["tolerance"], name
        bound = min(1e-12, abs(row["tolerance"]))
        assert abs(now["value"] - row["value"]) <= bound, (name, now["value"], row["value"])
