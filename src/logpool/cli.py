"""Command-line interface.

Five subcommands::

    logpool verify <suite> [--seed N] [--samples N] [--tolerance X] [--out F]
    logpool experiment <config.json> [--seed N] [--out PREFIX]
    logpool pool   <input.json> [--kind log|linear]
    logpool gap    <input.json>
    logpool factor <input.json> [--seed N]

Exit codes: 0 on success with all checks passing, 1 when a check fails, a
domain error is raised or the request does not fit in memory, 2 on usage,
parse, or unknown-suite errors.

Machine-readable output is deterministic: identical command, configuration,
and seed produce byte-identical files.  Wall-clock timings go to stderr only,
precisely so they cannot leak into the artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

from . import __version__, constructions, factorize, persona, stability
from .core import Dist, OutcomeSpace, Weights, rng_from
from .errors import (
    ConfigParse,
    IoError,
    LogPoolError,
    NotFound,
    ParseError,
    UnknownSuite,
)
from .jsonio import (
    _document,
    _family_from_json,
    config_hash,
    decomposition_to_json,
    dist_from_json,
    dist_to_json,
    loads,
    weights_from_json,
)
from .pooling import linear_pool, log_pool_with_log_z, make_decomposition
from .suites import SUITE_NAMES, run_suite
from .welfare import UNANIMITY_TOL, gap_terms, unanimity_report

__all__ = ["main", "build_report"]

_ARTIFACT = {"name": "logpool", "version": __version__}

#: The largest ``family.n``: an (n, n + 1) array of it is 8.4 MB, and the
#: analytic family builds only up to n = 430.
_MAX_FAMILY_N = 1024


def build_report(
    suite: str,
    seed: int,
    samples: int | None,
    tolerance: float | None,
    checks: list,
) -> dict:
    """Assemble the deterministic verify report.

    Checks are sorted by name; the configuration hash covers every input
    that influenced the run.  Nothing time- or host-dependent goes in.
    """
    config = {
        "command": "verify",
        "suite": suite,
        "seed": seed,
        "samples": samples,
        "tolerance": tolerance,
    }
    rows = sorted((asdict(c) for c in checks), key=lambda c: c["name"])
    return {
        "schema": 1,
        "artifact": _ARTIFACT,
        "command": "verify",
        "suite": suite,
        "seed": seed,
        "config_hash": config_hash(config),
        "checks": rows,
        "passed": bool(all(c["passed"] for c in rows)),
    }


def _read_text(path: str) -> str | bytes:
    """The JSON text at ``path``, or on stdin (as text) for ``-``.  A file
    is read as bytes and goes to ``loads`` as bytes if it is ASCII with no
    CR and no NUL in its first two bytes: ``json.loads`` reads those bytes
    as it reads their text.  Any other file is decoded as text mode decodes
    it, CR and CRLF read as LF, so every error names the same position."""
    if path == "-":
        return sys.stdin.read()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if raw.isascii() and b"\r" not in raw and b"\0" not in raw[:2]:
        return raw
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path} as UTF-8: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_json(path: str | None, obj: Any) -> None:
    """``dumps(obj)`` and a newline to ``path``, or to ``sys.stdout`` as text
    (it may be a stream with no bytes layer) for none or ``-``."""
    text = _document(obj)
    try:
        if path in (None, "-"):
            sys.stdout.write(text.decode())
            sys.stdout.write("\n")
        else:
            with open(path, "wb") as fh:
                fh.write(text)
                fh.write(b"\n")
    except OSError as exc:
        raise IoError(f"cannot write {path or '-'}: {exc}") from exc


def _require_seed(seed: int) -> int:
    """Seeds key NumPy's SeedSequence, which takes non-negative integers only."""
    if seed < 0:
        raise ParseError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_seed(args.seed)
    if args.samples is not None and args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    if args.tolerance is not None and not math.isfinite(args.tolerance):
        raise ParseError(f"--tolerance must be finite, got {args.tolerance}")
    started = time.perf_counter()
    checks = run_suite(args.suite, args.seed, args.samples, args.tolerance)
    elapsed = time.perf_counter() - started
    report = build_report(args.suite, args.seed, args.samples, args.tolerance, checks)
    _write_json(args.out, report)
    if args.out not in (None, "-"):
        print(f"report written to {args.out}", file=sys.stderr)
    for row in report["checks"]:
        status = "pass" if row["passed"] else "FAIL"
        print(f"{status}  {row['name']}", file=sys.stderr)
    print(f"suite {args.suite}: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report["passed"] else 1


def _as_list(value: Any) -> list:
    return value if isinstance(value, list) else [value]


def _number(value: Any, kind: type, name: str, minimum: int | None = None) -> Any:
    """Config value ``name`` converted by ``kind`` (int or float) and at least
    ``minimum`` if given, or a :class:`ConfigParse` naming it.  A bool is not a
    number, and an int is never truncated from a float (``2.0`` is 2)."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    truncated = kind is int and isinstance(value, float) and number != value
    if number is None or truncated or isinstance(value, bool):
        raise ConfigParse(f'"{name}" is not a valid {kind.__name__}: {value!r}')
    if minimum is not None and number < minimum:
        raise ConfigParse(f'"{name}" must be at least {minimum}, got {number}')
    return number


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigParse(f'"{name}" must be a JSON object')
    return section


def _family_grid(config: dict) -> tuple[str, list[int], list[float], dict]:
    family = config.get("family")
    if not isinstance(family, dict) or "kind" not in family:
        raise ConfigParse('config needs a "family" object with a "kind"')
    kind = family["kind"]
    ns = [_number(n, int, "family.n") for n in _as_list(family.get("n", [2, 3]))]
    if max(ns, default=0) > _MAX_FAMILY_N:
        raise ConfigParse(f'"family.n" must be at most {_MAX_FAMILY_N}, got {max(ns)}')
    eps = _as_list(family.get("epsilon", [0.1, 0.03, 0.01]))
    return kind, ns, [_number(e, float, "family.epsilon") for e in eps], family


def _analysis_gaps(config: dict, seed: int) -> tuple[list[str], list[list], dict]:
    """Welfare-gap summary over the family's (n, epsilon) grid."""
    kind, ns, eps_grid, family = _family_grid(config)
    beta_samples = _number(family.get("beta_samples", 5), int, "family.beta_samples", 0)
    rows = []
    for n in ns:
        for eps in eps_grid:
            if kind == "analytic_unanimity":
                decomps = [("uniform", constructions.analytic_unanimity_instance(n, eps))]
            elif kind == "cyclic_welfare":
                inst = constructions.cyclic_welfare_instance(
                    n, eps, _number(family.get("C", 1.0), float, "family.C")
                )
                decomps = [
                    ("uniform", make_decomposition(list(inst.agents), inst.weights, "log"))
                ]
            elif kind == "peaked_incompatible":
                agents = constructions.peaked_incompatible_family(n, eps)
                decomps = []
                for s in range(beta_samples):
                    w = constructions.random_strict_weights(rng_from(seed, 10, n, s), n)
                    decomps.append((f"sample{s}", make_decomposition(agents, w, "log")))
            else:
                raise ConfigParse(f"unknown family kind {kind!r}")
            for label, decomp in decomps:
                rep = unanimity_report(decomp)
                weighted = float(decomp.weights.beta @ rep.gaps)  # the weighted_gap_sum column
                rows.append([kind, n, eps, label, rep.min_gap, weighted, rep.strictly_unanimous])
    columns = [
        "family",
        "n",
        "epsilon",
        "weights",
        "min_gap",
        "weighted_gap_sum",
        "strictly_unanimous",
    ]
    return columns, rows, {"strict_gap": UNANIMITY_TOL}


def _analysis_openness(config: dict, seed: int) -> tuple[list[str], list[list], dict]:
    """Proved unanimity radii at each n's discovered threshold epsilon."""
    kind, ns, _, _ = _family_grid(config)
    if kind != "analytic_unanimity":
        raise ConfigParse("the openness analysis needs the analytic_unanimity family")
    params = _section(config, "openness")
    samples = _number(params.get("samples", 32), int, "openness.samples", 1)
    rows = []
    epsilon_by_n = {}
    for n in ns:
        eps = constructions.find_epsilon_for_unanimity(n)
        epsilon_by_n[str(n)] = eps
        decomp = constructions.analytic_unanimity_instance(n, eps)
        cert = stability.certify_openness(decomp, samples=samples, seed=seed)
        rows.append([n, eps, cert.radius, cert.min_gap_at_boundary, samples, cert.log_ratio_radius])
    columns = ["n", "epsilon", "radius", "min_gap_at_boundary", "samples", "log_ratio_radius"]
    return columns, rows, {"strict_gap": UNANIMITY_TOL, "epsilon_by_n": epsilon_by_n}


def _analysis_suppression(config: dict, seed: int) -> tuple[list[str], list[list], dict]:
    """Optimal event suppression across a budget grid (linear in the budget)."""
    params = _section(config, "suppression")
    # the suppressed event needs 1 <= size < m - 1 outcomes
    m = _number(params.get("outcomes", 5), int, "suppression.outcomes", 3)
    n = _number(params.get("agents", 3), int, "suppression.agents", 2)
    instances = _number(params.get("instances", 4), int, "suppression.instances", 0)
    budgets = _as_list(params.get("budgets", [0.01, 0.02, 0.04, 0.08]))
    budgets = [_number(b, float, "suppression.budgets") for b in budgets]
    for eps in budgets:
        persona._require_budget(eps)
    rows = []
    for i in range(instances):
        rng = rng_from(seed, 20, i)
        decomp = constructions.random_decomposition(rng, m, n)
        profiles = persona.centered_profiles(decomp)
        event = constructions.random_event(rng, m)
        # the plan scales with the budget: one solve gives every budget's row
        norm = persona.optimal_suppression(profiles, event, 1.0).projection_norm
        rows += [[i, eps, eps * norm, norm, eps * norm / eps] for eps in budgets]
    columns = ["instance", "epsilon", "achieved", "projection_norm", "achieved_over_budget"]
    return columns, rows, {"pivot_rel_tol": persona.PIVOT_REL_TOL}


def _analysis_compensation(config: dict, seed: int) -> tuple[list[str], list[list], dict]:
    """Compensation-inequality slack over seeded random weight changes."""
    params = _section(config, "compensation")
    scale = _number(params.get("scale", 1e-3), float, "compensation.scale")
    if not 0.0 < scale < 1.0:  # a scale of 1 or more cannot keep every weight positive
        raise ConfigParse(f'"compensation.scale" must lie in (0, 1), got {scale}')
    m = _number(params.get("outcomes", 5), int, "compensation.outcomes", 2)
    n = _number(params.get("agents", 4), int, "compensation.agents", 2)
    instances = _number(params.get("instances", 25), int, "compensation.instances", 0)
    space, rows = OutcomeSpace(m), []
    for i in range(instances):
        for attempt in range(50):  # the first usable change
            rng = rng_from(seed, 21, i, attempt)
            (agents, beta, d), usable = constructions.random_weight_change(rng, m, n, scale)
            if usable:
                break
        else:
            raise NotFound(
                f"compensation instance {i}: none of 50 draws is a usable weight change "
                f'(one that keeps every weight positive); lower "compensation.scale" from {scale}'
            )
        decomp = make_decomposition([Dist(space, a) for a in agents], Weights(beta))
        h = int(d.argmax())
        rep = persona.compensation_bound(decomp, h, float(d[h]), None, d)
        rows.append([i, rep.lhs, rep.rhs, rep.slack, rep.residual_norm, rep.delta_l_norm])
    columns = ["instance", "lhs", "rhs", "slack", "residual_norm", "delta_l_norm"]
    return columns, rows, {"alignment_dead_zone": persona.ALIGNMENT_DEAD_ZONE}


_ANALYSES = {
    "gaps": _analysis_gaps,
    "openness": _analysis_openness,
    "suppression": _analysis_suppression,
    "compensation": _analysis_compensation,
}


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = loads(_read_text(args.config))
    if not isinstance(config, dict):
        raise ConfigParse("experiment config must be a JSON object")
    analyses = config.get("analyses")
    if not isinstance(analyses, list) or not analyses:
        raise ConfigParse('config needs a non-empty "analyses" array')
    for name in analyses:
        if not isinstance(name, str) or name not in _ANALYSES:
            known = ", ".join(sorted(_ANALYSES))
            raise ConfigParse(f"unknown analysis {name!r}; expected one of: {known}")
    raw_seed = config.get("seed", 0) if args.seed is None else args.seed
    seed = _require_seed(_number(raw_seed, int, "seed"))
    try:  # before any analysis, so a config that cannot be hashed writes no table
        digest = config_hash({**config, "seed": seed})
    except RecursionError:
        raise ConfigParse("experiment config is nested too deeply to hash") from None

    prefix = args.out or "experiment"
    started = time.perf_counter()
    tables = []
    thresholds = {}
    for name in analyses:
        columns, rows, used = _ANALYSES[name](config, seed)
        csv_path = Path(f"{prefix}.{name}.csv")
        _write_csv(csv_path, columns, rows)
        tables.append(
            {"analysis": name, "csv": csv_path.name, "columns": columns, "rows": len(rows)}
        )
        thresholds[name] = used
    elapsed = time.perf_counter() - started

    manifest = {
        "schema": 1,
        "artifact": _ARTIFACT,
        "command": "experiment",
        "seed": seed,
        "config_hash": digest,
        "thresholds": thresholds,
        "tables": tables,
    }
    manifest_path = Path(f"{prefix}.manifest.json")
    _write_json(str(manifest_path), manifest)
    print(f"experiment ({', '.join(analyses)}): {elapsed:.3f}s", file=sys.stderr)
    print(f"wrote {len(tables)} table(s) and {manifest_path}", file=sys.stderr)
    return 0


def _parse_family(obj: Any) -> tuple[list, Weights]:
    if not isinstance(obj, dict) or "agents" not in obj or "weights" not in obj:
        raise ParseError('input must be {"agents": [...], "weights": [...]}')
    return _family_from_json(obj, "agents"), weights_from_json(obj["weights"])


def _cmd_pool(args: argparse.Namespace) -> int:
    agents, weights = _parse_family(loads(_read_text(args.input)))
    if args.kind == "log":
        pooled, log_z = log_pool_with_log_z(agents, weights)
        out = {"kind": "log", "pool": dist_to_json(pooled), "log_z": log_z}
    else:
        pooled = linear_pool(agents, weights)
        out = {"kind": "linear", "pool": dist_to_json(pooled)}
    _write_json(args.out, out)
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    obj = loads(_read_text(args.input))
    if not isinstance(obj, dict) or "agent" not in obj or "pool" not in obj:
        raise ParseError('input must be {"agent": {...}, "pool": {...}}')
    agent = dist_from_json(obj["agent"])
    pooled = dist_from_json(obj["pool"], space=agent.space)
    gap, entropy_agent, entropy_pool, kl_pool_agent = map(float, gap_terms(agent.p, pooled.p))
    out = {
        "gap": gap,
        "entropy_agent": entropy_agent,
        "entropy_pool": entropy_pool,
        "kl_pool_agent": kl_pool_agent,
        "strictly_positive": bool(gap > 0.0),
    }
    _write_json(args.out, out)
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    _require_seed(args.seed)
    obj = loads(_read_text(args.input))
    if not isinstance(obj, dict) or "parent" not in obj or "weights" not in obj:
        raise ParseError('input must be {"parent": {...}, "weights": [...]}')
    parent = dist_from_json(obj["parent"])
    weights = weights_from_json(obj["weights"])
    decomp = factorize.factor_pairwise_distinct(parent, weights, seed=args.seed)
    out = {
        "decomposition": decomposition_to_json(decomp),
        "provenance": {
            "method": "pairwise_distinct",
            "seed": args.seed,
            "distinctness_tv": factorize.DISTINCTNESS_TV,
            "retry_budget": factorize.RETRY_BUDGET,
        },
    }
    _write_json(args.out, out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="logpool",
        description="opinion pooling, epistemic welfare, and weight-change analysis",
    )
    parser.add_argument("--version", action="version", version=f"logpool {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}, all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--samples", type=int, default=None, help="override per-check instance counts"
    )
    p_verify.add_argument(
        "--tolerance", type=float, default=None, help="override per-check thresholds"
    )
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a config-driven parameter sweep")
    p_exp.add_argument("config", help="JSON config file ('-' for stdin)")
    p_exp.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_exp.add_argument(
        "--out", default=None, help="output prefix (default 'experiment')"
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    p_pool = sub.add_parser("pool", help="pool a JSON family of distributions")
    p_pool.add_argument("input", help="JSON input file ('-' for stdin)")
    p_pool.add_argument("--kind", choices=("log", "linear"), default="log")
    p_pool.add_argument("--out", default=None)
    p_pool.set_defaults(fn=_cmd_pool)

    p_gap = sub.add_parser("gap", help="welfare gap of an agent against a pool")
    p_gap.add_argument("input", help="JSON input file ('-' for stdin)")
    p_gap.add_argument("--out", default=None)
    p_gap.set_defaults(fn=_cmd_gap)

    p_factor = sub.add_parser("factor", help="factor a distribution into distinct agents")
    p_factor.add_argument("input", help="JSON input file ('-' for stdin)")
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--out", default=None)
    p_factor.set_defaults(fn=_cmd_factor)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (UnknownSuite, ParseError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogPoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: the request does not fit in memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
