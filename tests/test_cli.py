"""The command-line interface: deterministic reports, exit codes, and the
experiment harness's CSV/manifest artifacts."""

import csv
import json

import numpy as np
import pytest

from _subproc import run_logpool
from logpool import loads
from logpool.cli import main


def run_cli(*argv, cwd=None):
    """Run the CLI in a real subprocess: exit code, stdout, stderr."""
    proc = run_logpool(*argv, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def assert_usage_error(capsys, argv):
    """``main(argv)`` exits 2 and explains itself on an ``error:`` line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines()), err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "welfare", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = loads(out.read_text())
    assert report["schema"] == 1
    assert report["command"] == "verify"
    assert report["suite"] == "welfare"
    assert report["seed"] == 7
    assert report["passed"] is True
    assert report["artifact"]["name"] == "logpool"
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for check in report["checks"]:
        assert check["passed"] is True
        assert isinstance(check["value"], float)
        assert isinstance(check["tolerance"], float)


def test_verify_reports_are_byte_identical_for_same_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "pools", "--seed", "11", "--out", str(a)]) == 0
    assert main(["verify", "pools", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_reports_differ_across_seeds(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "pools", "--seed", "11", "--out", str(a)]) == 0
    assert main(["verify", "pools", "--seed", "12", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_verify_sample_and_tolerance_overrides_enter_the_config_hash(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "pools", "--seed", "3", "--out", str(a)]) == 0
    assert (
        main(["verify", "pools", "--seed", "3", "--samples", "50", "--out", str(b)])
        == 0
    )
    ra, rb = loads(a.read_text()), loads(b.read_text())
    assert ra["config_hash"] != rb["config_hash"]


def test_verify_unknown_suite_is_a_usage_error():
    assert main(["verify", "mystery", "--seed", "1"]) == 2


def test_negative_verify_seed_is_a_usage_error(capsys):
    assert_usage_error(capsys, ["verify", "pools", "--seed", "-1"])


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_samples_below_one_is_a_usage_error(tmp_path, capsys, samples):
    out = tmp_path / "report.json"
    assert_usage_error(capsys, ["verify", "pools", "--samples", samples, "--out", str(out)])
    assert not out.exists()


def test_verify_all_via_subprocess():
    code, stdout, stderr = run_cli("verify", "all", "--seed", "1")
    assert code == 0, stderr
    report = json.loads(stdout)
    assert report["passed"] is True
    assert len(report["checks"]) >= 25
    assert "suite all:" in stderr  # timing goes to stderr, not the report
    assert "suite" not in stdout or "s\n" not in stdout.split("checks")[0]


# ---------------------------------------------------------------------------
# pool / gap / factor
# ---------------------------------------------------------------------------


FAMILY = {
    "agents": [
        {"labels": ["a", "b", "c"], "p": [0.5, 0.3, 0.2]},
        {"labels": ["a", "b", "c"], "p": [0.2, 0.5, 0.3]},
    ],
    "weights": {"beta": [0.6, 0.4]},
}


def test_pool_log_kind(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY))
    assert main(["pool", "--kind", "log", str(path)]) == 0
    out = loads(capsys.readouterr().out)
    assert out["kind"] == "log"
    assert out["log_z"] <= 0.0
    p = np.array(out["pool"]["p"])
    assert abs(p.sum() - 1.0) <= 1e-12
    # independent recomputation
    from logpool import OutcomeSpace, Weights, dist_from_json, log_pool

    agents = [dist_from_json(a) for a in FAMILY["agents"]]
    expected = log_pool(agents, Weights(np.array([0.6, 0.4])))
    assert np.abs(p - expected.p).max() <= 1e-15


def test_pool_linear_kind(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY))
    assert main(["pool", "--kind", "linear", str(path)]) == 0
    out = loads(capsys.readouterr().out)
    assert out["kind"] == "linear"
    assert "log_z" not in out
    assert out["pool"]["p"][0] == pytest.approx(0.6 * 0.5 + 0.4 * 0.2, abs=1e-15)


def test_gap_outputs_every_information_term(tmp_path, capsys):
    from logpool import dist_from_json, entropy, kl, welfare_gap

    agent = {"p": [0.5, 0.3, 0.2]}
    pool_doc = {"p": [0.3, 0.4, 0.3]}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"agent": agent, "pool": pool_doc}))
    assert main(["gap", str(path)]) == 0
    out = loads(capsys.readouterr().out)
    r = dist_from_json(agent)
    p = dist_from_json(pool_doc)
    assert out["gap"] == pytest.approx(welfare_gap(r, p), abs=1e-15)
    assert out["entropy_agent"] == pytest.approx(entropy(r), abs=1e-15)
    assert out["entropy_pool"] == pytest.approx(entropy(p), abs=1e-15)
    assert out["kl_pool_agent"] == pytest.approx(kl(p, r), abs=1e-15)
    assert out["gap"] == pytest.approx(
        out["entropy_agent"] - out["entropy_pool"] - out["kl_pool_agent"], abs=1e-9
    )
    assert out["strictly_positive"] == (out["gap"] > 0.0)


def test_factor_round_trips_a_decomposition(tmp_path, capsys):
    from logpool import decomposition_from_json

    doc = {
        "parent": {"p": [0.5, 0.3, 0.2]},
        "weights": {"beta": [0.4, 0.35, 0.25]},
    }
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    assert main(["factor", "--seed", "5", str(path)]) == 0
    out = loads(capsys.readouterr().out)
    decomp = decomposition_from_json(out["decomposition"])
    assert decomp.n == 3
    assert np.abs(decomp.parent.p - np.array([0.5, 0.3, 0.2])).max() <= 1e-15
    prov = out["provenance"]
    assert prov["method"] == "pairwise_distinct"
    assert prov["seed"] == 5
    assert prov["distinctness_tv"] == 1e-6


def test_factor_is_seed_deterministic(tmp_path):
    doc = {"parent": {"p": [0.5, 0.3, 0.2]}, "weights": [0.5, 0.5]}
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["factor", "--seed", "5", str(path), "--out", str(a)]) == 0
    assert main(["factor", "--seed", "5", str(path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_factor_seed_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "factor.json"
    path.write_text(json.dumps({"parent": {"p": [0.5, 0.3, 0.2]}, "weights": [0.5, 0.5]}))
    assert_usage_error(capsys, ["factor", str(path), "--seed", "-3"])


def test_stdin_input(tmp_path):
    code, stdout, stderr = run_cli("pool", "-", cwd=str(tmp_path))
    assert code == 2, stderr  # empty stdin is not valid JSON


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["pool", str(path)]) == 2


def test_domain_errors_exit_one(tmp_path):
    path = tmp_path / "unnormalized.json"
    path.write_text(
        json.dumps(
            {"agents": [{"p": [0.5, 0.4]}, {"p": [0.5, 0.5]}], "weights": [0.5, 0.5]}
        )
    )
    assert main(["pool", str(path)]) == 1


def test_missing_file_is_an_io_error():
    assert main(["pool", "/nonexistent/input.json"]) == 2


def test_version_flag():
    code, stdout, _ = run_cli("--version")
    assert code == 0
    assert "logpool" in stdout


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


CONFIG = {
    "seed": 11,
    "family": {"kind": "analytic_unanimity", "n": [2, 3], "epsilon": [0.05, 0.01]},
    "analyses": ["gaps", "openness", "suppression", "compensation"],
    "openness": {"samples": 8},
    "suppression": {"instances": 2, "budgets": [0.01, 0.02, 0.04]},
    "compensation": {"instances": 4},
}


def test_experiment_writes_tables_and_manifest(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    prefix = tmp_path / "run"
    assert main(["experiment", str(cfg), "--out", str(prefix)]) == 0
    manifest = loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["seed"] == 11
    assert [t["analysis"] for t in manifest["tables"]] == CONFIG["analyses"]
    assert set(manifest["thresholds"]) == set(CONFIG["analyses"])
    assert manifest["thresholds"]["gaps"]["strict_gap"] == 1e-9
    discovered = manifest["thresholds"]["openness"]["epsilon_by_n"]
    assert set(discovered) == {"2", "3"}
    assert all(0.0 < eps < 0.25 for eps in discovered.values())
    for table in manifest["tables"]:
        path = tmp_path / table["csv"]
        assert path.exists()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == table["columns"]
        assert len(rows) - 1 == table["rows"]
        assert len(rows) > 1


def test_experiment_gap_table_contents(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "family": {
                    "kind": "analytic_unanimity",
                    "n": [2],
                    "epsilon": [0.01],
                },
                "analyses": ["gaps"],
            }
        )
    )
    prefix = tmp_path / "run"
    assert main(["experiment", str(cfg), "--out", str(prefix)]) == 0
    with open(tmp_path / "run.gaps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "analytic_unanimity"
    assert row["strictly_unanimous"] == "true"
    assert float(row["min_gap"]) > 1e-9


def _gap_rows(tmp_path, kind: str) -> list[dict]:
    """The gaps table of a seed-5 run of ``kind`` over n 2, 3 at the default
    epsilon grid (0.1, 0.03, 0.01), two weight samples per peaked point."""
    cfg = tmp_path / "config.json"
    family = {"kind": kind, "n": [2, 3], "beta_samples": 2}
    cfg.write_text(json.dumps({"seed": 5, "family": family, "analyses": ["gaps"]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run.gaps.csv") as fh:
        return list(csv.DictReader(fh))


def test_experiment_gaps_on_the_peaked_family_are_negative(tmp_path):
    """Peaked incompatible agents lose in weighted sum at every grid point
    and every weight sample."""
    rows = _gap_rows(tmp_path, "peaked_incompatible")
    assert len(rows) == 2 * 3 * 2
    assert [r["weights"] for r in rows[:2]] == ["sample0", "sample1"]
    for row in rows:
        assert row["family"] == "peaked_incompatible"
        assert float(row["weighted_gap_sum"]) < 0.0, row
        assert row["strictly_unanimous"] == "false"


def test_experiment_gaps_on_the_cyclic_family_are_symmetric(tmp_path):
    """Cyclic agents under uniform weights are symmetric: every gap equals
    the weighted sum, and it is negative."""
    rows = _gap_rows(tmp_path, "cyclic_welfare")
    assert len(rows) == 2 * 3
    for row in rows:
        assert row["weights"] == "uniform"
        min_gap, weighted = float(row["min_gap"]), float(row["weighted_gap_sum"])
        assert abs(min_gap - weighted) <= 1e-12, row
        assert weighted < 0.0, row


def test_unknown_family_kind_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"family": {"kind": "spiral"}, "analyses": ["gaps"]}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not list(tmp_path.glob("x.*"))


def test_openness_on_a_non_analytic_family_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    family = {"kind": "cyclic_welfare", "n": [2]}
    cfg.write_text(json.dumps({**CONFIG, "family": family, "analyses": ["openness"]}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not list(tmp_path.glob("x.*"))


def test_experiment_is_deterministic(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    for name in CONFIG["analyses"]:
        a = (tmp_path / f"r1.{name}.csv").read_bytes()
        b = (tmp_path / f"r2.{name}.csv").read_bytes()
        assert a == b, name


def test_experiment_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 11,
                "family": {"kind": "analytic_unanimity", "n": [2], "epsilon": [0.01]},
                "analyses": ["suppression"],
                "suppression": {"instances": 2},
            }
        )
    )
    assert main(["experiment", str(cfg), "--seed", "99", "--out", str(tmp_path / "r")]) == 0
    manifest = loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["seed"] == 99


def test_experiment_config_validation(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["gaps"]}))  # family missing
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(
        json.dumps({"family": {"kind": "analytic_unanimity"}, "analyses": ["plots"]})
    )
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"family": {"kind": "analytic_unanimity"}}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("analysis", [["gaps"], {"gaps": 1}, 3, None])
def test_an_analysis_name_that_is_not_a_string_is_a_usage_error(tmp_path, capsys, analysis):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"family": {"kind": "analytic_unanimity"}, "analyses": [analysis]}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])


def test_negative_experiment_seed_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "seed": -1, "analyses": ["gaps"]}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["gaps"]}))
    argv = ["experiment", str(cfg), "--seed", "-1", "--out", str(tmp_path / "x")]
    assert_usage_error(capsys, argv)
    assert not (tmp_path / "x.manifest.json").exists()


def test_two_outcome_suppression_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {**CONFIG, "analyses": ["suppression"], "suppression": {"outcomes": 2}}
        )
    )
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    cfg.write_text(
        json.dumps(
            {**CONFIG, "analyses": ["suppression"], "suppression": {"outcomes": 3}}
        )
    )
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 0


@pytest.mark.parametrize(
    "change",
    [
        {"seed": "x"},
        {"family": {"kind": "analytic_unanimity", "n": ["a"]}},
        {"family": {"kind": "analytic_unanimity", "epsilon": [None]}},
        {"suppression": {"outcomes": "x"}},
        {"suppression": {"budgets": [[0.01]]}},
        {"compensation": {"scale": {}}},
        {"openness": 5},
    ],
    ids=["seed", "family.n", "family.epsilon", "suppression.outcomes",
         "suppression.budgets", "compensation.scale", "openness-section"],
)
def test_non_numeric_config_values_are_usage_errors(tmp_path, capsys, change):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, **change}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x.manifest.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        {"analyses": ["suppression"], "suppression": {"instances": -1}},
        {"analyses": ["compensation"], "compensation": {"instances": -1}},
        {
            "analyses": ["gaps"],
            "family": {"kind": "peaked_incompatible", "n": [2], "beta_samples": -1},
        },
        {"analyses": ["openness"], "openness": {"samples": -1}},
    ],
    ids=["suppression.instances", "compensation.instances", "family.beta_samples",
         "openness.samples"],
)
def test_negative_counts_are_usage_errors(tmp_path, capsys, change):
    """A negative count used to write an empty table and exit 0."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, **change}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not list(tmp_path.glob("x.*"))


def test_an_openness_run_without_samples_is_a_usage_error(tmp_path, capsys):
    """``samples: 0`` used to certify radius 0.49999809 from no probe at all."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["openness"], "openness": {"samples": 0}}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize(
    "change",
    [
        {"family": {"kind": "analytic_unanimity", "n": [2.9]}},
        {"seed": 1.5},
        {"seed": True},
        {"openness": {"samples": 1.5}},
        {"openness": {"samples": True}},
    ],
    ids=["family.n", "seed", "seed-bool", "openness.samples", "openness.samples-bool"],
)
def test_a_fractional_or_bool_integer_setting_is_a_usage_error(tmp_path, capsys, change):
    """``"n": [2.9]`` used to run n = 2 and ``"seed": 1.5`` seed 1, and a bool
    counted as 1."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["openness"], **change}))
    assert_usage_error(capsys, ["experiment", str(cfg), "--out", str(tmp_path / "x")])
    assert not list(tmp_path.glob("x.*"))


def test_an_integral_float_setting_is_its_integer(tmp_path):
    cfg = tmp_path / "config.json"
    family = {"kind": "analytic_unanimity", "n": [2.0], "epsilon": [0.05]}
    for name, seed in (("int", 11), ("float", 11.0)):
        cfg.write_text(json.dumps({**CONFIG, "seed": seed, "family": family, "analyses": ["gaps"]}))
        assert main(["experiment", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "float.gaps.csv").read_text() == (tmp_path / "int.gaps.csv").read_text()
    manifest = json.loads((tmp_path / "float.manifest.json").read_text())
    assert manifest["seed"] == 11 and isinstance(manifest["seed"], int)
    rows = (tmp_path / "int.gaps.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "2"
