"""Verification reports against committed golden copies.

``golden/verify_all_seed42.json`` is the report ``logpool verify all --seed 42``
writes, and the ``verify_<suite>_seed<s>[_samples3].json`` reports are what
``logpool verify <suite> --seed s [--samples 3]`` writes; ``--samples 3``
leaves most shape groups with a single instance.  The ``stability`` and
``all`` reports were last written when the openness check moved from a
bisected tv radius to the proved log-ratio radius: only the
``stability.unanimity_survives_in_a_ball`` entry moved (its value, detail
and sample count, now the vertex probes per ball).  Every report before
that was written when each randomized check moved from one stream per
instance onto one stream per check, which changed the drawn instances: only
``value`` fields moved, and every name, verdict, sample count, tolerance and
config hash stayed.  Before that they dated from before the pool and gap
computations moved onto stacked-array kernels and the instance loops were
batched.
Check names, verdicts and sample counts must match exactly.  Each value may
drift by at most min(1e-12, |tolerance|), so a check with tolerance 0 must
reproduce its value bit for bit.  A wider drift is a golden update,
made on purpose and recorded in CHANGES.md, never a silent re-generation.

``golden/bytes/`` holds whole CLI artifacts, compared byte for byte, so not
even an ulp may move: the ``logpool verify all --seed 42 --out`` report and
the ``logpool experiment`` outputs (four CSVs and the manifest) of the
README config at its seed 3, written with ``--out
golden/bytes/experiment_readme_seed3``.  Floats in the JSON artifacts are
written as their shortest round-trip text; two more cases hold that the
written files read back to the in-process floats bit for bit.
"""

import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from _gen import personas, random_dist, random_strict_weights, seeded
from logpool import OutcomeSpace, log_pool
from logpool.cli import main
from logpool.suites import run_suite

GOLDEN = Path(__file__).parent / "golden"
BYTES = GOLDEN / "bytes"

#: The experiment config of README.md's ``experiment`` section.
README_CONFIG = {
    "seed": 3,
    "family": {"kind": "analytic_unanimity", "n": [2, 3], "epsilon": [0.05, 0.01]},
    "analyses": ["gaps", "openness", "suppression", "compensation"],
    "openness": {"samples": 16},
    "suppression": {"instances": 4, "budgets": [0.01, 0.02, 0.04, 0.08]},
    "compensation": {"instances": 25},
}

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


@pytest.mark.parametrize("prefix", ["verify_all_seed42", "experiment_readme_seed3"])
def test_cli_artifacts_match_their_golden_bytes(tmp_path, prefix):
    out = str(tmp_path / prefix)
    if prefix.startswith("verify"):
        assert main(["verify", "all", "--seed", "42", "--out", out + ".json"]) == 0
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(README_CONFIG))
        assert main(["experiment", str(config), "--out", out]) == 0
    golden = sorted(BYTES.glob(prefix + ".*"))
    assert [g.name for g in golden] == sorted(p.name for p in tmp_path.glob(prefix + ".*"))
    for path in golden:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


_bits = struct.Struct("<d")


def test_the_verify_report_reads_back_to_the_in_process_floats(tmp_path):
    """Every check's value and tolerance in the ``verify all --seed 42`` file
    is a float with the bits ``run_suite`` computed."""
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--seed", "42", "--out", str(out)]) == 0
    written = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    checks = run_suite("all", 42, None)
    assert sorted(written) == sorted(c.name for c in checks)
    for check in checks:
        for field in ("value", "tolerance"):
            got, want = written[check.name][field], getattr(check, field)
            assert type(got) is float and type(want) is float, (check.name, field, got)
            assert _bits.pack(got) == _bits.pack(want), (check.name, field, got, want)


def test_a_pool_at_vocabulary_size_reads_back_bit_for_bit(tmp_path):
    """``pool`` over m = 32768 outcomes: the written ``p`` parses to
    ``log_pool``'s floats, bit for bit."""
    rng = seeded(809)
    space = OutcomeSpace(32768)
    agents = [random_dist(rng, space) for _ in range(3)]
    weights = random_strict_weights(rng, 3)
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"agents": [{"p": a.p.tolist()} for a in agents],
                                  "weights": weights.beta.tolist()}))
    out = tmp_path / "pool.json"
    assert main(["pool", "--kind", "log", str(family), "--out", str(out)]) == 0
    written = json.loads(out.read_text())["pool"]["p"]
    assert set(map(type, written)) == {float}
    got = np.array(written).view(np.uint64)
    want = log_pool(agents, weights).p.view(np.uint64)
    bad = np.flatnonzero(got != want)
    assert not bad.size, f"{bad.size} floats moved, first at {bad[0]}: {written[bad[0]]!r}"


#: sha256 of the ``pool --kind log`` and ``factor --seed 5`` artifacts over
#: ``personas(17, 32768, 4)``, recorded before the JSON writer moved onto
#: orjson calls, first per label list and float chunk, then per document.
VOCAB_SHA256 = {
    "pool": "bcbf6750cb284496842792cdd4dceb9d4d8b35c6753585ce7070e4ab2d1e470c",
    "factor": "fcd77e590a9e09a1dbfe38d74da2e7d9bfd33a141161a7574dfcf721f1b8490a",
}


@pytest.mark.parametrize("command", sorted(VOCAB_SHA256))
def test_vocabulary_sized_artifacts_match_their_pinned_bytes(tmp_path, command):
    """The CLI artifacts at m = 32768: default labels, a float list per
    distribution, and a factor's four distributions, byte for byte."""
    agents = personas(17, 32768, 4)
    if command == "pool":
        doc = {"agents": [{"p": a.tolist()} for a in agents], "weights": [0.4, 0.3, 0.2, 0.1]}
        options = ["--kind", "log"]
    else:
        doc = {"parent": {"p": agents[0].tolist()}, "weights": [0.5, 0.3, 0.2]}
        options = ["--seed", "5"]
    src, out = tmp_path / "input.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert main([command, str(src), *options, "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == VOCAB_SHA256[command], got
