"""logpool benchmark: one workload, closed loop, one caller, one thread.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload verify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload vocab --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --selftest

Each operation is an in-process call to ``logpool.cli.main(argv)`` on inputs
generated from ``--seed``; the next starts when the previous one returns.
The run attempts whole rounds of operations until ``--seconds`` have passed,
checks every output, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy is first imported (and inherited by the
# set-up probes this process starts).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads
from workloads import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7


def _import_cli():
    """``logpool.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "logpool" / "cli.py").is_file():
        sys.exit(f"error: no logpool source at {SRC / 'logpool'}")
    sys.path.insert(0, str(SRC))
    import logpool
    import logpool.cli

    if Path(logpool.__file__).resolve().parent != SRC / "logpool":
        sys.exit(f"error: imported logpool from {logpool.__file__}, not {SRC}")
    return logpool.cli


class Runner:
    """Calls the CLI, times each call and judges it."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.digests: dict = {}
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}

    def call(self, op) -> tuple[int | None, str, BaseException | None, float]:
        err = io.StringIO()
        exc = None
        rc = None
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t = perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception as e:  # a traceback from the CLI is a failed operation
                exc = e
            dt = perf_counter() - t
        return rc, err.getvalue(), exc, dt

    def judge(self, op, rc, err, exc) -> bool:
        """True when the operation succeeded; raises CheckFailed on wrong output."""
        ok = exc is None and rc == op.expect_rc
        if ok and op.expect_rc == 2:
            ok = any(line.startswith("error:") for line in err.splitlines())
        if not ok:
            what = repr(exc) if exc is not None else f"exit {rc}: {err.strip()[-300:]}"
            self.failures.setdefault(op.kind, what)
            return False
        if not op.outputs:
            return True
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in op.outputs)).hexdigest()
        if op.key in self.digests:
            if self.digests[op.key] != digest:
                raise CheckFailed(f"{op.kind}: output differs from an earlier run on the same input")
        else:
            op.validate()
            self.digests[op.key] = digest
        return True

    def run(self, op) -> None:
        rc, err, exc, dt = self.call(op)
        self.attempted += 1
        self.latencies.append(dt)
        if not self.judge(op, rc, err, exc):
            self.failed += 1

    def rounds(self, workload, first: int, seconds: float, between=None) -> int:
        """Whole rounds until ``seconds`` of them have passed; returns the
        next round.  ``between(share)``, given the share of ``seconds`` done,
        runs after each round and off the clock."""
        r = first
        elapsed = 0.0
        while elapsed < seconds:
            t = perf_counter()
            for op in workload.round(r):
                self.run(op)
            elapsed += perf_counter() - t
            r += 1
            if between is not None:
                between(elapsed / seconds)
        return r

    def ops_per_s(self, start: int = 0) -> float:
        """Operations per second of operation time, from operation ``start`` on."""
        done = self.latencies[start:]
        return len(done) / sum(done)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _setup(args, workdir: Path):
    """Import, generate and write the inputs, run one untimed warm-up."""
    cli = _import_cli()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(cli)
    op = workload.warmup()
    rc, err, exc, _ = runner.call(op)
    try:
        if not runner.judge(op, rc, err, exc):
            sys.exit(f"error: warm-up {op.argv} failed: {runner.failures[op.kind]}")
    except CheckFailed as wrong:
        sys.exit(f"error: wrong output in warm-up: {wrong}")
    return runner, workload


class SetupProbes:
    """Times from launching a fresh interpreter to its first timed operation
    being ready (``perf_counter`` is system-wide monotonic).

    The probes are spread evenly over the timed phase, one whenever another
    ``1 / SETUP_PROBES`` of it is done, so that their median sees the host
    at the same moments as the operations do rather than in one burst.
    """

    def __init__(self, args, run_dir: Path) -> None:
        self.args = args
        self.run_dir = run_dir
        self.times: list[float] = []

    def due(self, share: float) -> None:
        while len(self.times) < SETUP_PROBES and share >= len(self.times) / SETUP_PROBES:
            self.probe()

    def probe(self) -> None:
        probe_dir = self.run_dir / f"probe{len(self.times)}"
        argv = [
            sys.executable, str(BENCH / "run.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--setup-probe", str(probe_dir),
        ]
        t = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.times.append(float(proc.stdout.split()[-1]) - t)
        shutil.rmtree(probe_dir, ignore_errors=True)

    def median(self) -> float:
        return statistics.median(self.times)


def _per_layer(tracer, ops: int) -> dict:
    """Per-operation call counts, self times and bytes, plus ratios."""

    def calls(name):
        return tracer.total(name, "calls")

    def per_op(name, field):
        return tracer.total(name, field) / ops

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in (
        "core.Dist", "core.Dist.log_p", "core.rng_from", "pooling.log_pool",
        "pooling.Decomposition", "welfare.welfare_gap", "welfare.unanimity_report",
        "constructions.analytic_unanimity_instance", "stability.transport_decomposition",
        "stability.sample_at_tv_radius",
    ):
        metrics[f"{name}.calls"] = (per_op(name, "calls"), "count/op")
    for name in (
        "core.Dist", "core.event_indices", "pooling.log_pool", "pooling.Decomposition",
        "welfare.unanimity_report", "constructions.find_epsilon_for_unanimity",
        "stability.certify_openness", "factorize.factor_pairwise_distinct",
        "persona.centered_profiles", "persona.optimal_suppression", "persona.compensation_bound",
        "jsonio.dumps", "jsonio.loads", "jsonio.dist_from_json", "suites.run_suite", "cli.main",
    ):
        metrics[f"{name}.self_s"] = (per_op(name, "self_s"), "s/op")
    for name in ("jsonio.dumps", "jsonio.loads"):
        metrics[f"{name}.bytes"] = (per_op(name, "items"), "B/op")
    metrics["core.log_p_per_dist"] = (ratio(calls("core.Dist.log_p"), calls("core.Dist")), "ratio")
    metrics["welfare.gaps_per_child"] = (
        ratio(calls("welfare.welfare_gap"), tracer.total("welfare.unanimity_report", "items")), "ratio")
    metrics["stability.probes_per_certificate"] = (
        ratio(calls("stability.sample_at_tv_radius"), calls("stability.certify_openness")), "ratio")
    return metrics


def _result(correct: bool, runner: Runner, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(args) -> int:
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        runner, workload = _setup(args, run_dir)
        try:
            if args.trace:
                half = args.seconds / 2.0
                r = runner.rounds(workload, 0, half)
                plain_ops = runner.attempted
                plain = runner.ops_per_s()
                tracer = spans.Tracer()
                spans.install(tracer)
                t1 = perf_counter()
                runner.rounds(TracedWorkload(workload, tracer, runner, r), r, half)
                metrics = _per_layer(tracer, runner.attempted - plain_ops)
                metrics["trace.ops_per_s_ratio"] = (runner.ops_per_s(plain_ops) / plain, "ratio")
                tracer.write(OUT / f"trace-{args.workload}.jsonl", t1)
            else:
                probes = SetupProbes(args, run_dir)
                runner.rounds(workload, 0, args.seconds, probes.due)
                lat = sorted(runner.latencies)
                metrics = {
                    "ops_per_s": (runner.ops_per_s(), "ops/s"),
                    "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                    "op_tail_ms": (_percentile(lat, workload.tail_pct) * 1e3, "ms"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                }
                metrics["setup_s"] = (probes.median(), "s")
        except CheckFailed as exc:
            print(f"error: wrong output: {exc}", file=sys.stderr)
            print(_result(False, runner, {}))
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for kind, what in runner.failures.items():
        print(f"failed: {kind}: {what}", file=sys.stderr)
    print(_result(True, runner, metrics))
    return 0


class TracedWorkload:
    """Stamps each operation's spans with its operation id, and records the
    spans of the first traced round only: one ``verify`` round alone makes
    ~40 MB of JSON Lines."""

    def __init__(self, workload, tracer, runner, first: int) -> None:
        self.workload = workload
        self.tracer = tracer
        self.runner = runner
        self.first = first

    def round(self, r: int):
        self.tracer.recording = r == self.first
        for op in self.workload.round(r):
            self.tracer.op = self.runner.attempted
            yield op
        self.tracer.recording = False


def probe(args) -> int:
    """Set up once in this fresh interpreter; print when the first timed
    operation could start."""
    _setup(args, Path(args.setup_probe))
    print(perf_counter())
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true", help="quick check of the benchmark itself")
    args = parser.parse_args()
    if args.selftest:
        import selftest

        return selftest.main(_import_cli(), Runner)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        return probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
