"""The command line never ends in a traceback: any argv, and any JSON payload
to ``pool``, ``gap``, ``factor`` and ``experiment``, gives exit 0, 1 or 2,
with an ``error:`` line on stderr whenever it is not 0.

Runs ``logpool.cli.main`` in-process with stdin, stdout and stderr replaced,
on bounded examples: counts and sizes in generated configs stay small, so
every example finishes in milliseconds.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logpool.cli import main

SMALL_INT = st.integers(-3, 6)
NUMBER = st.one_of(
    SMALL_INT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 1e308, 2**70]),
)
LEAF = st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=4))
JSON = st.recursive(
    LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)
PROBS = st.one_of(st.lists(NUMBER, min_size=0, max_size=4), JSON)
DIST = st.one_of(
    st.fixed_dictionaries({"p": PROBS}),
    st.fixed_dictionaries(
        {"p": PROBS, "labels": st.one_of(st.lists(st.text(max_size=2), max_size=4), JSON)}
    ),
    PROBS,
)
PAYLOADS = {
    "pool": st.fixed_dictionaries(
        {"agents": st.one_of(st.lists(DIST, max_size=3), JSON), "weights": PROBS}
    ),
    "gap": st.fixed_dictionaries({"agent": DIST, "pool": DIST}),
    "factor": st.fixed_dictionaries({"parent": DIST, "weights": PROBS}),
    "experiment": st.fixed_dictionaries(
        {
            "analyses": st.one_of(
                st.lists(st.sampled_from(["gaps", "openness", "suppression", "compensation", "x"]),
                         max_size=2),
                JSON,
            ),
            "family": st.one_of(
                st.fixed_dictionaries(
                    {
                        "kind": st.sampled_from(
                            ["analytic_unanimity", "cyclic_welfare", "peaked_incompatible", "x"]
                        ),
                        "n": st.one_of(SMALL_INT, st.lists(SMALL_INT, max_size=2), JSON),
                        "epsilon": st.one_of(NUMBER, st.lists(NUMBER, max_size=2), JSON),
                        "beta_samples": SMALL_INT,
                        "C": NUMBER,
                    }
                ),
                JSON,
            ),
        },
        optional={
            "seed": st.one_of(SMALL_INT, NUMBER, JSON),
            "openness": st.one_of(st.fixed_dictionaries({"samples": SMALL_INT}), JSON),
            "suppression": st.one_of(
                st.fixed_dictionaries(
                    {"outcomes": SMALL_INT, "agents": SMALL_INT, "instances": SMALL_INT,
                     "budgets": st.one_of(st.lists(NUMBER, max_size=2), NUMBER)}
                ),
                JSON,
            ),
            "compensation": st.one_of(
                st.fixed_dictionaries(
                    {"outcomes": SMALL_INT, "agents": SMALL_INT, "instances": SMALL_INT,
                     "scale": NUMBER}
                ),
                JSON,
            ),
        },
    ),
}
TOKENS = st.sampled_from(
    ["verify", "experiment", "pool", "gap", "factor", "pools", "all", "persona", "-",
     "--seed", "--samples", "--tolerance", "--kind", "log", "linear", "--out", "--help",
     "--version", "-1", "0", "1", "2", "3.5", "nan", "inf", "1e309",
     "99999999999999999999", "x", "", "missing.json"]
)


def _run(argv, stdin_text=""):
    """``main(argv)`` in a scratch directory; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        saved_stdin = sys.stdin
        os.chdir(tmp)
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            sys.stdin = saved_stdin
            os.chdir(here)
    return rc, err.getvalue()


def _require_clean_exit(rc, err):
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in err, err
    # argparse's usage errors read "logpool ...: error: ..."; failed checks "FAIL  name"
    if rc != 0:
        lines = err.splitlines()
        assert any(x.startswith(("error:", "FAIL  ")) or ": error:" in x for x in lines), err


_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))


@_SETTINGS
@given(argv=st.lists(TOKENS, max_size=6))
def test_any_argv_exits_cleanly(argv):
    # "verify all" at full size takes a second; keep any verify run small
    if "verify" in argv:
        argv = argv + ["--samples", "1"]
    _require_clean_exit(*_run(argv))


@_SETTINGS
@given(data=st.data(), command=st.sampled_from(sorted(PAYLOADS)))
def test_any_json_payload_exits_cleanly(data, command):
    payload = data.draw(st.one_of(PAYLOADS[command], JSON))
    text = json.dumps(payload, allow_nan=True)
    argv = {"pool": ["pool", "-"], "gap": ["gap", "-"], "factor": ["factor", "-"],
            "experiment": ["experiment", "-", "--out", "run"]}[command]
    _require_clean_exit(*_run(argv, text))


@_SETTINGS
@given(
    scale=NUMBER,
    sizes=st.fixed_dictionaries(
        {"outcomes": SMALL_INT, "agents": SMALL_INT, "instances": st.integers(0, 2)}
    ),
)
def test_a_compensation_scale_outside_the_unit_interval_exits_2(scale, sizes):
    """Only a scale in the open interval (0, 1) can keep every weight
    positive; any other number, NaN and infinity included, is a usage error
    naming the setting, whatever the other counts are."""
    config = {"analyses": ["compensation"], "compensation": {**sizes, "scale": scale}}
    rc, err = _run(["experiment", "-", "--out", "run"], json.dumps(config, allow_nan=True))
    _require_clean_exit(rc, err)
    if not 0.0 < scale < 1.0:
        assert rc == 2, err
        assert '"compensation.scale"' in err, err
