"""Quick check of the benchmark itself: ``python3 bench/run.py --selftest``.

1. The oracle against cases worked out by hand.
2. Every workload at tiny sizes (m = 256, two n, verify ``--samples 2``):
   warm-up plus one round, every output checked.
3. For each workload, deliberately spoiled outputs must fail both the
   oracle check and the comparison with the first output on equal inputs.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracle
from workloads import WORKLOADS, CheckFailed

OUT = Path(__file__).resolve().parent / "out" / "selftest"


def _near(got, want, what: str, tol: float = 1e-15) -> None:
    if abs(float(got) - want) > tol:
        raise AssertionError(f"oracle {what}: got {float(got)!r}, want {want!r}")


def hand_cases() -> None:
    """Two agents (1/2, 1/2) and (9/10, 1/10) at equal weights, and a
    projection on three uniform outcomes."""
    agents = np.array([[0.5, 0.5], [0.9, 0.1]])
    beta = np.array([0.5, 0.5])
    # geometric means sqrt(.45) = 3/sqrt(20), sqrt(.05) = 1/sqrt(20); Z = 2/sqrt(5)
    pool, log_z = oracle.log_pool(agents, beta)
    _near(pool[0], 0.75, "log pool")
    _near(log_z, math.log(2.0) - 0.5 * math.log(5.0), "log Z")
    _near(oracle.linear_pool(agents, beta)[0], 0.7, "linear pool")
    _near(oracle.entropy([0.5, 0.5]), math.log(2.0), "entropy")
    _near(oracle.kl([0.75, 0.25], [0.5, 0.5]), 0.75 * math.log(1.5) + 0.25 * math.log(0.5), "KL")
    # binary closed form (x - x_i) log(x_i / (1 - x_i)) with x = 3/4, x_i = 9/10
    _near(oracle.welfare_gap([0.9, 0.1], [0.75, 0.25]), -0.15 * math.log(9.0), "welfare gap")
    _near(oracle.tv([0.9, 0.1], [0.75, 0.25]), 0.15, "tv")
    # (9/10, 1/10) * (3/4, 1/4) / (1/2, 1/2) is proportional to (27, 1)
    _near(oracle.transport([0.9, 0.1], [0.5, 0.5], [0.75, 0.25])[0], 27 / 28, "transport")
    # span{(1, -1, 0)} under uniform; centered indicator of {0} projects to
    # (1/2, -1/2, 0) with squared norm 1/6
    u = np.full(3, 1 / 3)
    g = np.array([2 / 3, -1 / 3, -1 / 3])
    _near(oracle.projection_norm(u, [np.array([1.0, -1.0, 0.0])], g), 1 / math.sqrt(6), "projection")
    _near(oracle.projection_norm(u, [np.array([1.0, -1.0, 0.0]), np.array([2.0, -2.0, 0.0])], g),
          1 / math.sqrt(6), "projection with a dependent vector")
    # n = 2 at the grid point 10^(-3/4): every agent's gap is positive
    if not oracle.analytic_unanimity_gaps(2, 10 ** -0.75).min() > 0:
        raise AssertionError("oracle: analytic instance n=2 should be unanimous")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv(path: Path, column: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = edit(rows[0][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _bump(text: str) -> str:
    return repr(float(text) * (1 + 1e-6) + 1e-6)


def _scale_first_child(obj) -> None:
    child = obj["decomposition"]["children"][0]
    p = np.array(child["p"])
    p[0] *= 2.0
    child["p"] = (p / p.sum()).tolist()


#: For each workload, (operation kind, how to spoil its output).
PERTURB = {
    "verify": [("welfare", lambda op: _edit_json(
        op.outputs[0], lambda r: r["checks"][0].update(passed=False)))],
    "openness": [
        ("n2", lambda op: _edit_csv(op.outputs[0], "min_gap", _bump)),
        ("n3", lambda op: _edit_csv(op.outputs[1], "epsilon", lambda e: repr(float(e) * 10 ** -0.25))),
    ],
    "vocab": [
        ("pool_log", lambda op: _edit_json(op.outputs[0], lambda o: o.update(log_z=o["log_z"] + 1e-6))),
        ("gap", lambda op: _edit_json(op.outputs[0], lambda o: o.update(gap=o["gap"] + 1e-6))),
        ("factor", lambda op: _edit_json(op.outputs[0], _scale_first_child)),
        ("experiment", lambda op: _edit_csv(op.outputs[0], "achieved_over_budget", _bump)),
    ],
}


def run_workload(name: str, runner) -> None:
    workdir = OUT / name
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](1, workdir, small=True)
    runner.run(workload.warmup())
    ops = {}
    for op in workload.round(0):
        runner.run(op)
        ops.setdefault(op.kind, op)
    expected_failures = sum(op.expect_rc != 0 for op in workload.round(0))
    if runner.failed > expected_failures:
        raise AssertionError(f"{name}: unexpected failures {runner.failures}")
    for kind, spoil in PERTURB[name]:
        op = ops[kind]
        runner.run(op)
        spoil(op)
        # both the oracle check and the comparison with the first output
        for check in (op.validate, lambda: runner.judge(op, op.expect_rc, "", None)):
            try:
                check()
            except CheckFailed:
                continue
            raise AssertionError(f"{name}: a spoiled {kind} output passed a check")
    print(f"selftest {name}: {runner.attempted} operations, {runner.failed} expected failures, "
          f"{len(PERTURB[name])} spoiled outputs caught")


def main(cli, runner_cls) -> int:
    hand_cases()
    print("selftest oracle: hand-computed cases agree")
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        for name in WORKLOADS:
            run_workload(name, runner_cls(cli))
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0
