"""The benchmark's workloads: seeded inputs, operation rounds and output checks.

A workload is built once per run from the workload seed; building it
generates and writes its inputs.  It then hands out *rounds*: fixed lists of
``logpool`` command lines, the same kinds in the same proportions every
round, so the share of failed operations is identical in every run.  Each
operation names the files it writes and a check that compares them with the
oracle (``oracle.py``) or with a property the method must have.  Operations
with equal ``key`` run on equal inputs; the runner checks the first of them
and compares the rest with it byte for byte.

Operation mixes are chosen so that neither the median nor the tail
percentile of a round's latencies falls on the boundary between two kinds
of operation (see README.md).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

#: Absolute tolerance for scalars (gaps, entropies, KL, log Z, norms): the
#: 1e-9 verdict dead zone of README "Numerical conventions".
SCALAR_TOL = 1e-9

#: Total-variation tolerance for distributions: construction-time 1e-12.
DIST_TOL = 1e-12

#: Pairwise total-variation floor of ``factor`` (``factorize.DISTINCTNESS_TV``).
DISTINCTNESS_TV = 1e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(got, want, tol: float, what: str) -> None:
    require(abs(float(got) - float(want)) <= tol, f"{what}: got {got!r}, want {float(want)!r}")


@dataclass
class Op:
    """One ``logpool`` command line and how to judge what it wrote.

    The operation succeeded when the CLI returned ``expect_rc`` (and, for a
    usage error, printed an ``error:`` line).  ``validate`` then checks the
    files in ``outputs``.
    """

    kind: str
    argv: list[str]
    key: object
    outputs: tuple[Path, ...] = ()
    validate: Callable[[], None] | None = None
    expect_rc: int = 0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sub_seed(*key: int) -> int:
    """A non-negative 31-bit seed derived from integer ``key``."""
    return int(np.random.default_rng(list(key)).integers(2**31))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: The number of checks each suite must report.
SUITE_CHECKS = {
    "pools": 4,
    "welfare": 5,
    "constructions": 4,
    "factorize": 4,
    "stability": 4,
}


class Verify:
    """``verify <suite> --seed s`` for five suites, a fresh seed per round.

    Each round runs ``pools`` and ``welfare`` twice at the round's seed; the
    second run must write a byte-identical report.  ``persona`` is left out:
    its ``linearization_residual_is_second_order`` check fails on some seeds
    (see README.md), and an operation that fails on some seeds only would
    make the share of failures differ from run to run.  Latencies sort as
    constructions < factorize < pools <= stability < welfare (medians ~105,
    145, 235, 280, 580 ms), so the median (rank 3.5 of 7) falls inside the
    two ``pools`` runs (ranks 3-4) and the p90 tail (rank 6.3) inside the two
    ``welfare`` runs (ranks 6-7).
    """

    name = "verify"
    tail_pct = 90
    ROUND = ("constructions", "pools", "welfare", "factorize", "stability", "pools", "welfare")

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.extra = ["--samples", "2"] if small else []

    def _op(self, suite: str, vseed: int, out: Path) -> Op:
        def validate() -> None:
            report = json.loads(out.read_text())
            require(report.get("command") == "verify", "report command is not verify")
            require(report.get("suite") == suite, f"report suite is {report.get('suite')!r}")
            require(report.get("seed") == vseed, f"report seed is {report.get('seed')!r}")
            require(report.get("passed") is True, f"{suite} seed {vseed} did not pass")
            checks = report.get("checks", [])
            require(
                len(checks) == SUITE_CHECKS[suite],
                f"{suite} reports {len(checks)} checks, want {SUITE_CHECKS[suite]}",
            )
            names = [c["name"] for c in checks]
            require(len(set(names)) == len(names), f"{suite} repeats a check name")
            for c in checks:
                require(c["name"].startswith(suite + "."), f"check {c['name']} outside {suite}")
                require(c["passed"] is True, f"check {c['name']} failed at seed {vseed}")

        argv = ["verify", suite, "--seed", str(vseed), "--out", str(out)] + self.extra
        return Op(suite, argv, ("verify", suite, vseed), (out,), validate)

    def warmup(self) -> Op:
        # the same whatever the workload seed, so set-up time does not vary with it
        return self._op("constructions", 0, self.workdir / "warmup.json")

    def round(self, r: int) -> list[Op]:
        vseed = _sub_seed(self.seed, r)
        ops = []
        for i, suite in enumerate(self.ROUND):
            ops.append(self._op(suite, vseed, self.workdir / f"verify-{i}.json"))
        return ops


# ---------------------------------------------------------------------------
# openness
# ---------------------------------------------------------------------------

class Openness:
    """``experiment`` with the ``gaps`` and ``openness`` analyses on the
    analytic-unanimity family, one config per (n, seed), n = 2..6.

    Each config draws a fresh experiment seed and two gap epsilons,
    log-uniform in [1e-3, 0.24], so some rows are strictly unanimous and
    some are not.  Latency is dominated by the ``certify_openness``
    bisection (18 steps of up to 64 probes), 100-350 ms per config with no
    gap between the n, so the median and p95 fall inside one continuous
    spread.
    """

    name = "openness"
    tail_pct = 95
    NS = (2, 3, 4, 5, 6)

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ns = (2, 3) if small else self.NS
        self.samples = 8 if small else 64
        self._epsilon = {}

    def _unanimity_epsilon(self, n: int) -> float:
        if n not in self._epsilon:
            self._epsilon[n] = oracle.unanimity_epsilon(n)
        return self._epsilon[n]

    def _op(self, n: int, draw: tuple[int, ...]) -> Op:
        rng = np.random.default_rng(list(draw))
        eseed = int(rng.integers(2**31))
        epsilons = [float(e) for e in np.exp(rng.uniform(np.log(1e-3), np.log(0.24), 2))]
        config = {
            "seed": eseed,
            "family": {"kind": "analytic_unanimity", "n": [n], "epsilon": epsilons},
            "analyses": ["gaps", "openness"],
            "openness": {"samples": self.samples},
        }
        path = self.workdir / f"openness-n{n}.json"
        path.write_text(json.dumps(config))
        prefix = self.workdir / f"openness-n{n}"
        gaps_csv = Path(f"{prefix}.gaps.csv")
        open_csv = Path(f"{prefix}.openness.csv")
        manifest = Path(f"{prefix}.manifest.json")

        def validate() -> None:
            rows = _read_csv(gaps_csv)
            require(len(rows) == len(epsilons), f"gaps table has {len(rows)} rows")
            for row, eps in zip(rows, epsilons):
                require(row["family"] == "analytic_unanimity", "gaps row family")
                require(int(row["n"]) == n and float(row["epsilon"]) == eps, "gaps row (n, epsilon)")
                gaps = oracle.analytic_unanimity_gaps(n, eps)
                close(row["min_gap"], gaps.min(), SCALAR_TOL, f"min_gap n={n} eps={eps}")
                close(row["weighted_gap_sum"], gaps.mean(), SCALAR_TOL, f"weighted_gap_sum n={n}")
                # inside the dead zone around the threshold either verdict is right
                if abs(float(gaps.min()) - oracle.STRICT_GAP) > SCALAR_TOL:
                    want = "true" if gaps.min() > oracle.STRICT_GAP else "false"
                    require(row["strictly_unanimous"] == want, f"strictly_unanimous n={n} eps={eps}")
            (row,) = _read_csv(open_csv)
            want_eps = self._unanimity_epsilon(n)
            require(int(row["n"]) == n, "openness row n")
            close(row["epsilon"], want_eps, 1e-12 * want_eps, f"threshold epsilon n={n}")
            require(0.0 < float(row["radius"]) <= 0.5, f"radius {row['radius']} n={n}")
            require(float(row["min_gap_at_boundary"]) > 0.0, f"boundary gap n={n}")
            require(int(row["samples"]) == self.samples, "openness samples")
            meta = json.loads(manifest.read_text())
            require(meta["seed"] == eseed, "manifest seed")
            require([t["rows"] for t in meta["tables"]] == [len(epsilons), 1], "manifest row counts")
            require(meta["thresholds"]["openness"]["epsilon_by_n"][str(n)] == float(row["epsilon"]), "manifest epsilon")

        argv = ["experiment", str(path), "--out", str(prefix)]
        return Op(f"n{n}", argv, ("openness",) + draw, (gaps_csv, open_csv, manifest), validate)

    def warmup(self) -> Op:
        # the same whatever the workload seed, so set-up time does not vary with it
        return self._op(self.ns[0], (self.ns[0],))

    def round(self, r: int) -> list[Op]:
        return [self._op(n, (self.seed, r, n)) for n in self.ns]


# ---------------------------------------------------------------------------
# vocab
# ---------------------------------------------------------------------------

def personas(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """``n`` persona next-token distributions over a vocabulary of ``m``.

    A shared Zipf(1.1) base over a seeded token order, per persona a +2 nat
    boost on a seeded 2 % "topic" subset and 0.3-nat Gaussian jitter: heavy
    shared head, persona-specific tails, every entry strictly positive.
    """
    base = -1.1 * np.log(rng.permutation(m) + 1.0)
    out = np.empty((n, m))
    for i in range(n):
        lw = base + 0.3 * rng.standard_normal(m)
        lw[rng.choice(m, size=max(1, m // 50), replace=False)] += 2.0
        p = np.exp(lw - lw.max())
        p /= p.sum()
        out[i] = p / p.sum()
    return out


def strict_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = 0.2 + rng.random(n)
    return w / w.sum()


def seeded_suppression_instance(seed: int, i: int, m: int, n: int):
    """The children, weights and event of instance ``i`` of the
    ``experiment`` suppression analysis.

    Mirrors the draws the CLI documents for it: stream (seed, 20, i); n
    children from gamma(1.5, 1) + 0.02, normalized; weights 0.15 + U[0, 1),
    normalized; an event size in [1, m - 1) and the event itself.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(20, i)))
    children = []
    for _ in range(n):
        raw = rng.gamma(1.5, 1.0, m) + 0.02
        p = raw / raw.sum()
        children.append(p / p.sum())
    raw = 0.15 + rng.random(n)
    beta = raw / raw.sum()
    k = int(rng.integers(1, m - 1))
    event = rng.choice(m, size=k, replace=False)
    return np.array(children), beta, event


def _dist_json(p: np.ndarray) -> dict:
    return {"p": p.tolist()}


def _parse_dist(obj, m: int) -> np.ndarray:
    require(len(obj["labels"]) == m and len(obj["p"]) == m, "distribution length")
    p = np.array(obj["p"], dtype=float)
    require(np.all(p > 0) and abs(p.sum() - 1.0) <= DIST_TOL, "distribution not strictly positive and normalized")
    return p


class Vocab:
    """``pool``, ``gap``, ``factor`` and a ``suppression`` + ``compensation``
    experiment on persona distributions over an LLM-sized vocabulary.

    Inputs are generated once per run; a round of 20 operations is
    1 ``factor --seed -3`` (fixed input, fails today), 2 ``gap``,
    3 ``experiment``, 10 ``pool`` (6 ``--kind log``, 4 ``--kind linear``)
    and 4 ``factor``.  Latencies sort in that order (medians ~25, 50, 90,
    185, 195, 420 ms at m = 32768; the two pool kinds overlap), so the
    median (ranks 10-11) is inside the pools (ranks 7-16) and p95 (rank 19)
    inside the factors (ranks 17-20).
    """

    name = "vocab"
    tail_pct = 95
    M = 32768
    BUDGETS = [0.01, 0.02, 0.04, 0.08]
    ROUND = (
        "factor_neg", "pool_log", "gap", "pool_linear", "factor", "experiment", "pool_log",
        "pool_linear", "factor", "pool_log", "gap", "experiment", "pool_log", "pool_linear",
        "factor", "pool_log", "experiment", "pool_linear", "factor", "pool_log",
    )

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.workdir = workdir
        m = self.m = 256 if small else self.M
        rng = np.random.default_rng([seed, 7])
        agents = personas(rng, m, 4)
        self.pool_beta = strict_weights(rng, 4)
        self.gap_pool = np.asarray(oracle.log_pool(agents, self.pool_beta)[0], dtype=float)
        self.gap_pool /= self.gap_pool.sum()
        self.agents = agents
        self.factor_beta = strict_weights(rng, 3)
        self.factor_seed = int(rng.integers(2**31))
        self.exp_seed = int(rng.integers(2**31))
        self.inputs = {
            "pool": {"agents": [_dist_json(a) for a in agents], "weights": self.pool_beta.tolist()},
            "gap": {"agent": _dist_json(agents[0]), "pool": _dist_json(self.gap_pool)},
            "factor": {"parent": _dist_json(agents[1]), "weights": self.factor_beta.tolist()},
            # fixed input, independent of the workload seed: the request
            # fails on its negative seed, not on its data
            "factor_neg": {
                "parent": _dist_json(personas(np.random.default_rng(0), m, 1)[0]),
                "weights": [0.5, 0.3, 0.2],
            },
            "experiment": {
                "seed": self.exp_seed,
                "family": {"kind": "analytic_unanimity", "n": [2]},
                "analyses": ["suppression", "compensation"],
                "suppression": {"outcomes": m, "agents": 3, "instances": 2, "budgets": self.BUDGETS},
                "compensation": {"outcomes": m, "agents": 4, "instances": 2},
            },
        }
        for name, obj in self.inputs.items():
            (workdir / f"{name}.json").write_text(json.dumps(obj))

    def _out(self, kind: str) -> Path:
        return self.workdir / f"out-{kind}.json"

    def _check_pool_log(self) -> None:
        out = json.loads(self._out("pool_log").read_text())
        require(out["kind"] == "log", "pool kind")
        want, log_z = oracle.log_pool(self.agents, self.pool_beta)
        got = _parse_dist(out["pool"], self.m)
        require(oracle.tv(got, want) <= DIST_TOL, f"log pool tv {float(oracle.tv(got, want)):.3e}")
        close(out["log_z"], log_z, SCALAR_TOL, "log_z")

    def _check_pool_linear(self) -> None:
        out = json.loads(self._out("pool_linear").read_text())
        require(out["kind"] == "linear" and "log_z" not in out, "pool kind")
        got = _parse_dist(out["pool"], self.m)
        want = oracle.linear_pool(self.agents, self.pool_beta)
        require(oracle.tv(got, want) <= DIST_TOL, f"linear pool tv {float(oracle.tv(got, want)):.3e}")

    def _check_gap(self) -> None:
        out = json.loads(self._out("gap").read_text())
        agent, pool = self.agents[0], self.gap_pool
        close(out["gap"], oracle.welfare_gap(agent, pool), SCALAR_TOL, "gap")
        close(out["entropy_agent"], oracle.entropy(agent), SCALAR_TOL, "entropy_agent")
        close(out["entropy_pool"], oracle.entropy(pool), SCALAR_TOL, "entropy_pool")
        close(out["kl_pool_agent"], oracle.kl(pool, agent), SCALAR_TOL, "kl_pool_agent")
        identity = out["entropy_agent"] - out["entropy_pool"] - out["kl_pool_agent"]
        close(out["gap"], identity, SCALAR_TOL, "gap vs entropy - entropy - KL")
        require(out["strictly_positive"] is (out["gap"] > 0.0), "strictly_positive")

    def _check_factor(self) -> None:
        out = json.loads(self._out("factor").read_text())
        prov = out["provenance"]
        require(prov["seed"] == self.factor_seed and prov["method"] == "pairwise_distinct", "factor provenance")
        require(prov["distinctness_tv"] == DISTINCTNESS_TV, "factor distinctness threshold")
        dec = out["decomposition"]
        require(dec["pool_kind"] == "log", "factor pool kind")
        require(np.array_equal(np.array(dec["weights"]), self.factor_beta), "factor weights")
        parent = _parse_dist(dec["parent"], self.m)
        require(np.array_equal(parent, self.agents[1]), "factor parent differs from the input")
        children = np.array([_parse_dist(c, self.m) for c in dec["children"]])
        require(len(children) == len(self.factor_beta), "factor child count")
        repooled, _ = oracle.log_pool(children, self.factor_beta)
        err = oracle.tv(repooled, parent)
        require(err <= DIST_TOL, f"children re-pool {float(err):.3e} from the parent")
        family = [parent, *children]
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                d = oracle.tv(family[a], family[b])
                require(d > DISTINCTNESS_TV, f"factors {a} and {b} only {float(d):.3e} apart")

    def _check_experiment(self) -> None:
        prefix = self._out("experiment").with_suffix("")
        rows = _read_csv(Path(f"{prefix}.suppression.csv"))
        params = self.inputs["experiment"]["suppression"]
        require(len(rows) == params["instances"] * len(self.BUDGETS), "suppression row count")
        for i in range(params["instances"]):
            mine = [r for r in rows if int(r["instance"]) == i]
            require([float(r["epsilon"]) for r in mine] == self.BUDGETS, f"suppression budgets {i}")
            children, beta, event = seeded_suppression_instance(self.exp_seed, i, self.m, params["agents"])
            want = oracle.suppression_projection_norm(children, beta, event)
            for r in mine:
                ratio = float(r["achieved_over_budget"])
                close(ratio, mine[0]["achieved_over_budget"], 1e-12 * ratio, f"achieved/epsilon instance {i}")
                close(ratio, r["projection_norm"], 1e-12 * ratio, f"achieved/epsilon vs projection_norm {i}")
                close(ratio, want, SCALAR_TOL, f"projection norm instance {i}")
        rows = _read_csv(Path(f"{prefix}.compensation.csv"))
        require(len(rows) == self.inputs["experiment"]["compensation"]["instances"], "compensation row count")
        for r in rows:
            require(float(r["slack"]) >= -1e-9, f"compensation slack {r['slack']}")

    def _op(self, kind: str) -> Op:
        w = self.workdir
        out = self._out(kind)
        if kind == "factor_neg":
            return Op(kind, ["factor", str(w / "factor_neg.json"), "--seed", "-3", "--out", str(out)],
                      kind, expect_rc=2)
        if kind == "experiment":
            prefix = out.with_suffix("")
            argv = ["experiment", str(w / "experiment.json"), "--out", str(prefix)]
            files = tuple(Path(f"{prefix}.{t}") for t in ("suppression.csv", "compensation.csv", "manifest.json"))
            return Op(kind, argv, kind, files, self._check_experiment)
        if kind.startswith("pool_"):
            argv = ["pool", str(w / "pool.json"), "--kind", kind[5:], "--out", str(out)]
        elif kind == "factor":
            argv = ["factor", str(w / "factor.json"), "--seed", str(self.factor_seed), "--out", str(out)]
        else:
            argv = ["gap", str(w / "gap.json"), "--out", str(out)]
        return Op(kind, argv, kind, (out,), getattr(self, f"_check_{kind}"))

    def warmup(self) -> Op:
        return self._op("gap")

    def round(self, r: int) -> list[Op]:
        return [self._op(kind) for kind in self.ROUND]


WORKLOADS = {w.name: w for w in (Verify, Openness, Vocab)}
