"""The command-line interface: deterministic reports, exit codes, and the
experiment harness's CSV/manifest artifacts."""

import contextlib
import csv
import io
import json
import math
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from _subproc import child_env, run_logpool
from logpool import Dist, LogPoolError, OutcomeSpace, Weights, loads
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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_a_non_finite_verify_tolerance_is_a_usage_error(tmp_path, capsys, tolerance):
    """``--tolerance nan`` used to fail every check and write NaN into the
    report."""
    out = tmp_path / "report.json"
    assert main(["verify", "welfare", f"--tolerance={tolerance}", "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --tolerance must be finite"), line
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


def test_a_stdout_with_no_bytes_layer_gets_the_text_a_file_gets(tmp_path, monkeypatch):
    """``redirect_stdout(io.StringIO())`` gives a stdout that takes text only;
    the document written there reads as the ``--out`` file's bytes."""
    payload = json.dumps({"agent": {"p": [0.5, 0.3, 0.2]}, "pool": {"p": [0.3, 0.4, 0.3]}})
    path = tmp_path / "gap.json"
    path.write_text(payload)
    assert main(["gap", str(path), "--out", str(tmp_path / "out.json")]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gap", "-"]) == 0
    assert out.getvalue().encode() == (tmp_path / "out.json").read_bytes()


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


HUGE = [1e308, 1e308]


@pytest.mark.parametrize(
    "command,doc,what",
    [
        ("pool", {"agents": [{"p": HUGE}, {"p": [0.5, 0.5]}], "weights": [0.5, 0.5]}, "probabilities"),
        ("pool", {"agents": [{"p": [0.5, 0.5]}, {"p": [0.5, 0.5]}], "weights": HUGE}, "weights"),
        ("gap", {"agent": {"p": HUGE}, "pool": {"p": [0.5, 0.5]}}, "probabilities"),
        ("factor", {"parent": {"p": HUGE}, "weights": [0.5, 0.5]}, "probabilities"),
        ("factor", {"parent": {"p": [0.5, 0.5]}, "weights": HUGE}, "weights"),
    ],
    ids=["pool-p", "pool-weights", "gap-p", "factor-p", "factor-weights"],
)
def test_entries_whose_sum_overflows_are_not_normalized(tmp_path, capsys, command, doc, what):
    """Two entries of 1e308 sum to inf.  The validators' row sums used to
    print NumPy's overflow warning before the error."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {what} sum to inf"), line


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


@pytest.mark.parametrize("command", ["pool", "gap", "factor", "experiment"])
def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    """It used to end the run in a ``UnicodeDecodeError`` traceback."""
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(FAMILY).encode()[:-1] + b', "note": "\xff"}')
    assert main([command, str(path)]) == 2
    assert f"error: cannot read {path} as UTF-8: " in capsys.readouterr().err


def test_a_document_nested_too_deep_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"agents": ' + "[" * 3000 + "]" * 3000 + ', "weights": [1]}')
    assert_usage_error(capsys, ["pool", str(path)])


@pytest.mark.parametrize("where", ["p", "weights"])
def test_an_integer_entry_too_large_for_a_float_is_a_parse_error(tmp_path, capsys, where):
    family = json.loads(json.dumps(FAMILY))
    huge = 10**400
    if where == "p":
        family["agents"][1]["p"][0] = huge
    else:
        family["weights"]["beta"][0] = huge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(family))
    assert_usage_error(capsys, ["pool", str(path)])


#: Each vector an input holds, as (command, vector): "p" of the last agent
#: (``pool``), of the agent (``gap``) or of the parent (``factor``), or the
#: weights.
_VECTORS = [("pool", "p"), ("pool", "weights"), ("gap", "p"), ("factor", "p"), ("factor", "weights")]


def _input_with(command: str, where: str, m: int, entry) -> dict:
    """An input for ``command`` whose ``where`` vector holds ``m`` entries,
    ``1/m`` but for the last one, ``entry``."""
    vector = [1.0 / m] * (m - 1) + [entry]
    p = vector if where == "p" else [0.5, 0.3, 0.2]
    weights = vector if where == "weights" else [0.5, 0.5]
    if command == "pool":
        return {"agents": [{"p": [1.0 / len(p)] * len(p)}, {"p": p}], "weights": {"beta": weights}}
    if command == "gap":
        return {"agent": {"p": p}, "pool": {"p": [1.0 / m] * m}}
    return {"parent": {"p": p}, "weights": weights}


_NOT_NUMBERS = {"true": True, "false": False, "string": "0.5", "null": None, "list": [0.5], "object": {"p": 0.5}}


@pytest.mark.parametrize("m", [3, 32768])
@pytest.mark.parametrize("command, where", _VECTORS)
@pytest.mark.parametrize("entry", [*_NOT_NUMBERS.values(), 10**400], ids=[*_NOT_NUMBERS, "400 digits"])
def test_an_entry_that_is_not_a_float_is_a_parse_error(tmp_path, capsys, entry, command, where, m):
    """A bool, a string, ``null``, a list or an object among the numbers is
    the vector's type error, and an integer too large for a float its own
    error, wherever the entry sits in the vector."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_input_with(command, where, m, entry)))
    if where == "p":
        what, kind = '"p"', '"p" must be an array of numbers'
    else:
        what, kind = "the weights", 'weights are {"beta": [...]} or a bare array of numbers'
    message = f"an entry of {what} is too large for a float" if entry == 10**400 else kind
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("m", [3, 32768])
@pytest.mark.parametrize("command, where", _VECTORS)
@pytest.mark.parametrize("entry", [1.0, 0.0])
def test_a_float_one_or_zero_entry_reaches_the_domain_checks(tmp_path, capsys, entry, command, where, m):
    """``1.0`` and ``0.0`` are numbers, not the bools ``true`` and
    ``false``: the input fails as the vector built directly fails."""
    vector = np.array([1.0 / m] * (m - 1) + [entry])
    with pytest.raises(LogPoolError) as want:
        Dist(OutcomeSpace(m), vector) if where == "p" else Weights(vector)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_input_with(command, where, m, entry)))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want.value}\n"


@pytest.mark.parametrize(
    "agent, message",
    [
        ({"p": [10**400, "0.5", 0.5]}, '"p" must be an array of numbers'),
        ({"labels": [1, 2, 3], "p": [10**400, 0.5, 0.5]}, '"labels" must be an array of strings'),
        ({"p": [10**400, 0.25, 0.25, 0.5]}, "expected 3 probability entries, got 4"),
        ({"labels": ["x", "y", "z"], "p": [10**400, 0.5, 0.5]}, "labels do not match the expected outcome space"),
        ({"p": [10**400, 0.5, 0.5]}, 'an entry of "p" is too large for a float'),
    ],
    ids=["type", "label type", "length", "labels", "too large"],
)
def test_parse_errors_come_in_a_fixed_order(tmp_path, capsys, agent, message):
    """The second agent's ``"p"`` holds an integer too large for a float
    and the weights hold one too: the type of ``"p"``, then its labels, then
    its length are checked before either integer."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"agents": [{"p": [0.5, 0.3, 0.2]}, agent], "weights": [10**400, 1]}))
    assert main(["pool", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "raw", [b'{"agents": [],\r\n "weights": [1]} x', b'{"agents": [],\r "weights": [1]} x', b"1\0", b"\0\0\0\x31"], ids=ascii
)
def test_a_file_fails_as_its_text_fails(tmp_path, capsys, raw):
    """A file is read as bytes, yet one holding a CR, or a leading NUL that
    ``json.loads`` would take for UTF-16 or UTF-32, gets the error of its
    text with CR and CRLF read as LF, as a file opened as text gives."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(raw.decode().replace("\r\n", "\n").replace("\r", "\n"))
    assert main(["pool", str(path)]) == 2
    assert capsys.readouterr().err == f"error: invalid JSON: {want.value}\n"


def test_stdin_stays_text_and_pools_as_the_file_does(tmp_path, monkeypatch):
    """``-`` reads ``sys.stdin`` as text, so a stdin with no bytes layer
    (an ``io.StringIO``) works.  It, the file read as bytes and the file
    with CRLF line ends write the same artifact."""
    payload = json.dumps(FAMILY, indent=1)
    (tmp_path / "lf.json").write_text(payload)
    (tmp_path / "crlf.json").write_bytes(payload.replace("\n", "\r\n").encode())
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    written = []
    for src in ("-", str(tmp_path / "lf.json"), str(tmp_path / "crlf.json")):
        out = tmp_path / "out.json"
        assert main(["pool", src, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


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
# output files
# ---------------------------------------------------------------------------


def _factor_input(tmp_path, m: int):
    """A factor input over ``m`` outcomes with small, persona-like masses."""
    p = np.random.default_rng(3).exponential(size=m)
    path = tmp_path / "factor.json"
    path.write_text(json.dumps({"parent": {"p": (p / p.sum()).tolist()}, "weights": [0.5, 0.3, 0.2]}))
    return path


def _output_argv(tmp_path, command):
    if command == "pool":
        path = tmp_path / "family.json"
        path.write_text(json.dumps(FAMILY))
        return ["pool", str(path)]
    if command == "factor":
        return ["factor", str(_factor_input(tmp_path, 5)), "--seed", "4"]
    return ["verify", "constructions", "--samples", "1"]


@pytest.mark.parametrize("command", ["pool", "factor", "verify"])
def test_a_write_that_fails_midway_is_an_io_error(tmp_path, capsys, command):
    """``/dev/full`` opens for writing and fails the write with ENOSPC."""
    assert main([*_output_argv(tmp_path, command), "--out", "/dev/full"]) == 2
    assert "error: cannot write /dev/full" in capsys.readouterr().err


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_stdout_that_fails_is_an_io_error(tmp_path, capsys, monkeypatch):
    """A reader that went away used to end the run in a traceback."""
    argv = _output_argv(tmp_path, "pool")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 2
    assert "error: cannot write -: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pool", "factor", "verify"])
def test_out_dash_writes_the_file_bytes_to_stdout(tmp_path, capsys, command):
    argv = _output_argv(tmp_path, command)
    out = tmp_path / "out.json"
    main([*argv, "--out", str(out)])
    capsys.readouterr()
    main([*argv, "--out", "-"])
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_factor_peaks_below_twice_its_artifact(tmp_path):
    """The artifact is written from one bytes object, so the run holds the
    document once, not as a string built from pieces (which took over 4x
    the artifact's size)."""
    argv = ["factor", str(_factor_input(tmp_path, 8192)), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0  # first run: imports and the label cache
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out.json").stat().st_size
    assert peak < 2 * size, (peak, size)


def test_repeated_calls_in_one_process_answer_as_the_first(tmp_path, capsys):
    """The parser is built once per process; every subcommand, a usage error
    and ``--version``, each run twice in alternating order, keep their exit
    codes, stdout, stderr (timings aside) and written files."""
    from logpool import cli

    family, gap, config = tmp_path / "family.json", tmp_path / "gap.json", tmp_path / "c.json"
    family.write_text(json.dumps(FAMILY))
    gap.write_text(json.dumps({"agent": {"p": [0.5, 0.3, 0.2]}, "pool": {"p": [0.3, 0.4, 0.3]}}))
    config.write_text(json.dumps({**CONFIG, "analyses": ["gaps", "compensation"]}))
    out = tmp_path / "exp"
    calls = [
        ["verify", "welfare", "--seed", "3", "--samples", "2"],
        ["experiment", str(config), "--out", str(out)],
        ["pool", "--kind", "linear", str(family)],
        ["gap", str(gap)],
        ["factor", str(tmp_path / "missing.json")],
        ["factor", str(family), "--seed", "x"],
        ["--version"],
    ]

    def run(argv):
        for path in tmp_path.glob("exp.*"):
            path.unlink()
        code = main(argv)
        got = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("exp.*"))}
        return code, got.out, re.sub(r"\d+\.\d{3}s$", "<t>s", got.err, flags=re.M), files

    cli._build_parser.cache_clear()
    first = [run(argv) for argv in calls]
    assert [code for code, *_ in first] == [0, 0, 0, 0, 2, 2, 0]
    assert all(out for _, out, _, _ in first[2:4] + first[-1:])
    assert "<t>s" in first[0][2] and first[1][3]
    for argv, want in zip(calls, first):
        assert run(argv) == want, argv
    assert cli._build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("scale", [0.0, -1.0, 1.0, 1.5, 1e300, math.nan, math.inf, -math.inf])
def test_a_compensation_scale_outside_the_unit_interval_is_a_usage_error(
    tmp_path, capsys, scale
):
    """A scale of 1 or more can never keep every weight positive, and 0, a
    negative or a non-finite scale is no valid change; each used to fail
    inside ``persona`` with exit 1."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["compensation"], "compensation": {"scale": scale}}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert '"compensation.scale"' in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_a_compensation_instance_without_a_usable_draw_is_a_domain_error(tmp_path, capsys):
    """Five weights of about 0.2 and a change whose largest entry is 0.9: on
    each of instance 0's 50 draws some weight goes negative.  The last draw
    used to reach the pool and fail there with "weights must be nonnegative"."""
    cfg = tmp_path / "config.json"
    params = {"outcomes": 6, "agents": 5, "scale": 0.9, "instances": 3}
    cfg.write_text(json.dumps({"analyses": ["compensation"], "compensation": params}))
    assert main(["experiment", str(cfg), "--seed", "0", "--out", str(tmp_path / "x")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: compensation instance 0: none of 50 draws")
    assert '"compensation.scale"' in line
    assert not list(tmp_path.glob("x.*"))


def test_a_config_nested_too_deep_to_hash_is_a_usage_error(tmp_path, capsys):
    """A value nested 1000 deep parses, but overflows the recursion limit when
    the config is hashed; that used to end in a RecursionError traceback
    after the gaps table was written."""
    cfg = tmp_path / "config.json"
    head = json.dumps({"family": {"kind": "analytic_unanimity", "n": [2]}, "analyses": ["gaps"]})
    cfg.write_text(head[:-1] + ', "note": ' + "[" * 1000 + "]" * 1000 + "}")
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: experiment config is nested too deeply to hash"
    assert not list(tmp_path.glob("x.*"))


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


def test_a_request_too_large_for_memory_is_one_error_line(tmp_path):
    """10**9 outcomes ask for three 8 GB agent rows at the first draw, which
    used to end in a NumPy ``_ArrayMemoryError`` traceback.  The child runs
    under a 512 MiB address-space cap, so that allocation fails at once."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["suppression"], "suppression": {"outcomes": 10**9}}))
    proc = subprocess.run(
        [sys.executable, "-m", "logpool.cli", "experiment", str(cfg), "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=child_env(), stdin=subprocess.DEVNULL,
        preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: the request does not fit in memory"), line
    assert not list(tmp_path.glob("x.*"))


def test_a_family_n_above_the_bound_is_a_usage_error(tmp_path, capsys):
    """n = 10**8 used to fill about 1.5 GB (uniform weights, a repeated
    column) before its (n, n + 1) array, 71 PiB, failed to allocate."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["gaps"],
                               "family": {"kind": "analytic_unanimity", "n": [3, 10**8]}}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == 'error: "family.n" must be at most 1024, got 100000000', line
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("agents", [-1, 0, 1])
@pytest.mark.parametrize("analysis", ["suppression", "compensation"])
def test_fewer_than_two_agents_is_a_usage_error(tmp_path, capsys, analysis, agents):
    """A decomposition needs two children; a negative count used to end in a
    NumPy ValueError traceback."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "analyses": [analysis], analysis: {"agents": agents}}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f'"{analysis}.agents"' in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("outcomes", [-3, 0, 1])
def test_fewer_than_two_compensation_outcomes_is_a_usage_error(tmp_path, capsys, outcomes):
    """An outcome space needs two outcomes; such a count used to exit 1 from
    the OutcomeSpace check ("outcome space needs size >= 2")."""
    cfg = tmp_path / "config.json"
    change = {"analyses": ["compensation"], "compensation": {"outcomes": outcomes}}
    cfg.write_text(json.dumps({**CONFIG, **change}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert '"compensation.outcomes" must be at least 2' in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_openness_whose_probe_breaks_the_bound_exits_1_with_one_error_line(tmp_path):
    """A vertex probe of a ball 100 times the proved one loses strict
    unanimity; the run names that radius and the probe's gap on one line."""
    code = (
        "import sys; from logpool import stability, cli\n"
        "radius = stability._log_ratio_radius\n"
        "stability._log_ratio_radius = lambda *a: 100.0 * radius(*a)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["openness"],
                               "family": {"kind": "analytic_unanimity", "n": [2]}}))
    proc = subprocess.run(
        [sys.executable, "-c", code, "experiment", str(cfg), "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=child_env(), stdin=subprocess.DEVNULL,
    )
    assert proc.returncode == 1, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert re.fullmatch(
        r"error: vertex probe \d+ of the proved log-ratio ball of radius 0\.546\d* lost "
        r"strict unanimity: its smallest gap is -?\d\.\d+(e-\d+)?", line
    ), line
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("n", [8, 9, 40, 53, 100])
def test_openness_certifies_the_analytic_family(tmp_path, n):
    """From n = 9 on the parent's smallest mass (2.2e-7 at n = 9, 1.2e-30 at
    n = 40) was below every radius the old tv bisection reached in 18
    halvings, and from n = 53 below any it reached at all; the proved
    log-ratio radius does not depend on that mass."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["openness"],
                               "family": {"kind": "analytic_unanimity", "n": [n]}}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 0
    with open(tmp_path / "x.openness.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["log_ratio_radius"]) > 0.0 and float(row["radius"]) > 0.0
    assert float(row["min_gap_at_boundary"]) > 0.0


def test_openness_past_the_analytic_familys_range_is_one_error_line(tmp_path):
    """At n = 431 the parent's smallest mass underflows to zero."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"analyses": ["openness"],
                               "family": {"kind": "analytic_unanimity", "n": [431]}}))
    code, out, err = run_cli("experiment", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "strictly positive" in line, line
    assert not list(tmp_path.glob("x.*"))


def test_importing_the_cli_leaves_numpy_random_unimported():
    """Only a seeded command needs ``numpy.random``, about 12 ms of start-up
    with the ``secrets`` and ``hashlib`` it pulls in."""
    code = "import sys, logpool.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert out.stdout == "False\n", out.stderr


def test_suppression_solves_one_span_basis_per_instance(tmp_path, monkeypatch):
    """The plan scales with the budget, so each instance's basis is solved
    once however many budgets the table has."""
    from logpool import persona

    calls = []
    basis = persona._p_orthonormal_basis
    monkeypatch.setattr(
        persona, "_p_orthonormal_basis", lambda *args: calls.append(1) or basis(*args)
    )
    cfg = tmp_path / "config.json"
    suppression = {"instances": 3, "budgets": [0.01, 0.02, 0.04, 0.08]}
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["suppression"], "suppression": suppression}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert len(calls) == 3
    with open(tmp_path / "x.suppression.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        eps, norm = float(row["epsilon"]), float(row["projection_norm"])
        assert float(row["achieved"]) == eps * norm


@pytest.mark.parametrize("budget", [0.0, -0.01, float("inf")])
def test_a_budget_that_is_not_positive_and_finite_fails_without_instances(
    tmp_path, capsys, budget
):
    """With no instance to plan for, such a budget used to pass silently."""
    cfg = tmp_path / "config.json"
    suppression = {"instances": 0, "budgets": [0.01, budget]}
    cfg.write_text(json.dumps({**CONFIG, "analyses": ["suppression"], "suppression": suppression}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "budget must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


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
