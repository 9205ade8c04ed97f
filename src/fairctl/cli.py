"""Command-line front end: CSV vectors in, JSON reports out.

Exit codes are a stable contract: 0 for success or an all-pass verdict, 1
for a semantic negative (a non-member vector, a failed suite, a
non-converged solve), 2 for usage or input errors. Every report carries the
package version; the verify command echoes its seed, which can also be set
through the FAIRCTL_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import INFINITY, NonNegVector
from .fairness import FairnessSpec, dispersion_report
from .geometry import project_fair_region
from .solver import ObjectiveSpec, pareto_sweep, solve
from .verifier import SUITE_NAMES, VerifyConfig, _p_token, run_suite

DEFAULT_SEED = 42


class CliError(Exception):
    """Usage or input error; converted to exit status 2."""


def _parse_p(token: str) -> float:
    text = token.strip().lower()
    if text == "inf":
        return INFINITY
    try:
        p = float(text)
    except ValueError:
        raise CliError(f"invalid exponent {token!r}: expected a real >= 2 or 'inf'")
    if math.isnan(p) or p < 2.0:
        raise CliError(f"invalid exponent {token!r}: expected a real >= 2 or 'inf'")
    return p


def _parse_p_list(text: str) -> list[float]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise CliError("exponent list is empty")
    return [_parse_p(t) for t in tokens]


def _positive(kind):
    """argparse type for tolerances, steps and iteration caps: a finite kind > 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} > 0, got {text!r}")
        return value

    return parse


def _parse_eps(value: float) -> float:
    if not (0.0 <= value <= 1.0):
        raise CliError(f"epsilon must lie in [0, 1], got {value!r}")
    return float(value)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"invalid grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(t) for t in parts)
    except ValueError:
        raise CliError(f"invalid grid {text!r}: expected numeric start:stop:step")
    if step <= 0 or stop < start:
        raise CliError(f"invalid grid {text!r}: need step > 0 and stop >= start")
    if start < 0.0 or stop > 1.0:
        raise CliError(f"invalid grid {text!r}: epsilon values must lie in [0, 1]")
    count = int(math.floor((stop - start) / step + 1e-9))
    grid = [min(start + k * step, 1.0) for k in range(count + 1)]
    return grid


def _read_rows(path: str, nonneg: bool = True) -> list[np.ndarray]:
    """Parse a vector CSV: one vector per line, '#' lines are comments."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}")
    rows: list[np.ndarray] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values = np.array([float(tok) for tok in text.split(",")], dtype=float)
        except ValueError:
            raise CliError(f"{path}:{lineno}: malformed CSV row")
        if not np.all(np.isfinite(values)):
            raise CliError(f"{path}:{lineno}: entries must be finite")
        if nonneg and np.any(values < 0):
            raise CliError(f"{path}:{lineno}: entries must be nonnegative")
        if values.size < 2:
            raise CliError(f"{path}:{lineno}: vectors need at least 2 entries")
        if width is None:
            width = values.size
        elif values.size != width:
            raise CliError(
                f"{path}:{lineno}: inconsistent dimension {values.size} (expected {width})"
            )
        rows.append(values)
    if not rows:
        raise CliError(f"{path}: no vectors found")
    return rows


def _read_objective(path: str) -> ObjectiveSpec:
    rows = _read_rows(path, nonneg=False)
    if len(rows) != 1:
        raise CliError(f"{path}: objective file must contain exactly one row, found {len(rows)}")
    return ObjectiveSpec(rows[0])


def _document(command: str, inputs: dict, results: dict, seed: int | None = None) -> dict:
    doc = {"command": command, "inputs": inputs, "results": results}
    if seed is not None:
        doc["seed"] = seed
    doc["version"] = __version__
    return doc


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _report_entries(report) -> list[dict]:
    return [
        {
            "p": _p_token(entry.p),
            "eps_max": entry.eps_max,
            "member": entry.member,
            "cv_bound": entry.cv_bound,
        }
        for entry in report.per_p
    ]


def _cmd_check(args) -> tuple[dict, int]:
    eps = _parse_eps(args.eps)
    ps = _parse_p_list(args.p)
    rows = _read_rows(args.input)
    results = []
    all_members = True
    for index, row in enumerate(rows):
        try:
            vector = NonNegVector(row)
        except ValueError as exc:
            raise CliError(f"{args.input}: vector {index}: {exc}")
        report = dispersion_report(vector, ps, eps, tol=args.tol)
        members = all(entry.member for entry in report.per_p)
        all_members = all_members and members
        results.append(
            {
                "index": index,
                "cv": report.cv,
                "mean": report.mean,
                "per_p": _report_entries(report),
                "member_all_p": members,
            }
        )
    doc = _document(
        "check",
        {
            "input": args.input,
            "eps": eps,
            "p": [_p_token(p) for p in ps],
            "tol": args.tol,
        },
        {"vectors": results, "all_members": all_members},
    )
    return doc, 0 if all_members else 1


def _cmd_epsmax(args) -> tuple[dict, int]:
    ps = _parse_p_list(args.p)
    rows = _read_rows(args.input)
    results = []
    for index, row in enumerate(rows):
        try:
            vector = NonNegVector(row)
        except ValueError as exc:
            raise CliError(f"{args.input}: vector {index}: {exc}")
        report = dispersion_report(vector, ps, 0.0)
        results.append(
            {
                "index": index,
                "per_p": [
                    {"p": _p_token(entry.p), "eps_max": entry.eps_max}
                    for entry in report.per_p
                ],
            }
        )
    doc = _document(
        "epsmax",
        {"input": args.input, "p": [_p_token(p) for p in ps]},
        {"vectors": results},
    )
    return doc, 0


def _cmd_project(args) -> tuple[dict, int]:
    eps = _parse_eps(args.eps)
    p = _parse_p(args.p)
    spec = FairnessSpec(eps, p)
    rows = _read_rows(args.input)
    results = []
    all_converged = True
    for index, row in enumerate(rows):
        res = project_fair_region(row, spec, tol=args.tol, max_iter=args.max_iter)
        converged = res.residual <= args.tol
        all_converged = all_converged and converged
        results.append(
            {
                "index": index,
                "point": res.point.values.tolist(),
                "iterations": res.iterations,
                "residual": res.residual,
                "converged": converged,
            }
        )
    doc = _document(
        "project",
        {
            "input": args.input,
            "eps": eps,
            "p": _p_token(p),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {"points": results},
    )
    return doc, 0 if all_converged else 1


def _cmd_solve(args) -> tuple[dict, int]:
    eps = _parse_eps(args.eps)
    p = _parse_p(args.p)
    obj = _read_objective(args.objective)
    res = solve(
        obj,
        FairnessSpec(eps, p),
        step=args.step,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    doc = _document(
        "solve",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "eps": eps,
            "p": _p_token(p),
            "step": args.step,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {
            "x_opt": res.x_opt.values.tolist(),
            "objective_value": res.objective_value,
            "iterations": res.iterations,
            "converged": res.converged,
            "eps_max_at_opt": res.eps_max_at_opt,
            "cv_at_opt": res.cv_at_opt,
        },
    )
    return doc, 0 if res.converged else 1


def _cmd_sweep(args) -> tuple[dict, int]:
    p = _parse_p(args.p)
    grid = _parse_grid(args.eps_grid)
    obj = _read_objective(args.objective)
    points = pareto_sweep(obj, p, eps_grid=grid)
    rows = [
        {
            "epsilon": pt.epsilon,
            "objective": pt.objective_value,
            "cv": pt.cv,
            "cv_bound": pt.cv_bound,
            "converged": pt.converged,
        }
        for pt in points
    ]
    if args.emit_csv is not None:
        lines = ["epsilon,objective,cv,cv_bound"]
        for pt in points:
            lines.append(
                f"{pt.epsilon!r},{pt.objective_value!r},{pt.cv!r},{pt.cv_bound!r}"
            )
        with open(args.emit_csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    doc = _document(
        "sweep",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "p": _p_token(p),
            "eps_grid": grid,
            "emit_csv": args.emit_csv,
        },
        {"points": rows},
    )
    return doc, 0 if all(pt.converged for pt in points) else 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FAIRCTL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"FAIRCTL_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _cmd_verify(args) -> tuple[dict, int]:
    if args.suite.strip().lower() == "all":
        suites = SUITE_NAMES
    else:
        suites = tuple(tok.strip() for tok in args.suite.split(",") if tok.strip())
        unknown = [s for s in suites if s not in SUITE_NAMES]
        if unknown:
            raise CliError(
                f"unknown suite names {unknown}; known: {', '.join(SUITE_NAMES)}"
            )
        if not suites:
            raise CliError("no suite names given")
    seed = _resolve_seed(args)
    try:
        n_values = tuple(int(tok) for tok in args.n_values.split(",") if tok.strip())
    except ValueError:
        raise CliError(f"invalid dimension list {args.n_values!r}")
    p_values = tuple(_parse_p_list(args.p_chain))
    try:
        cfg = VerifyConfig(
            suites=suites,
            samples=args.samples,
            n_values=n_values,
            p_values=p_values,
            seed=seed,
            tol=args.tol,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    report = run_suite(cfg)
    body = report.to_dict()
    doc = _document(
        "verify",
        {
            "suite": list(cfg.suites),
            "samples": cfg.samples,
            "n_values": list(cfg.n_values),
            "p_values": [_p_token(p) for p in cfg.p_values],
            "tol": cfg.tol,
        },
        {"suites": body["suites"], "all_passed": body["all_passed"]},
        seed=seed,
    )
    return doc, 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairctl",
        description="Dispersion-control fairness constraints: membership, projection, solving, sweeps, verification.",
    )
    parser.add_argument("--version", action="version", version=f"fairctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="membership and thresholds for vectors in a CSV file")
    check.add_argument("--input", required=True, help="CSV file, one vector per line")
    check.add_argument("--eps", type=float, required=True, help="fairness level in [0, 1]")
    check.add_argument("--p", required=True, help="comma-separated exponents, each >= 2 or 'inf'")
    check.add_argument("--tol", type=_positive(float), default=1e-9, help="relative membership tolerance")
    check.add_argument("--out", default=None, help="write the JSON report to a file")

    epsmax = sub.add_parser("epsmax", help="maximal fairness threshold per vector")
    epsmax.add_argument("--input", required=True)
    epsmax.add_argument("--p", required=True, help="comma-separated exponents")
    epsmax.add_argument("--out", default=None)

    project = sub.add_parser("project", help="project vectors onto the fair region")
    project.add_argument("--input", required=True)
    project.add_argument("--eps", type=float, required=True)
    project.add_argument("--p", required=True, help="a single exponent >= 2 or 'inf'")
    project.add_argument("--tol", type=_positive(float), default=1e-8)
    project.add_argument("--max-iter", type=_positive(int), default=5000)
    project.add_argument("--out", default=None)

    solve_cmd = sub.add_parser("solve", help="maximize a linear objective over the fair region")
    solve_cmd.add_argument("--objective", required=True, help="CSV file with one coefficient row")
    solve_cmd.add_argument("--eps", type=float, required=True)
    solve_cmd.add_argument("--p", required=True)
    solve_cmd.add_argument("--step", type=_positive(float), default=None)
    solve_cmd.add_argument("--tol", type=_positive(float), default=1e-8)
    solve_cmd.add_argument("--max-iter", type=_positive(int), default=20000)
    solve_cmd.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="trace the efficiency-vs-fairness frontier over epsilon")
    sweep.add_argument("--objective", required=True)
    sweep.add_argument("--p", required=True)
    sweep.add_argument("--eps-grid", required=True, help="start:stop:step within [0, 1]")
    sweep.add_argument("--emit-csv", default=None, help="also write epsilon,objective,cv,cv_bound rows")
    sweep.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the sampling-based theorem suites")
    verify.add_argument("--suite", default="all", help="'all' or comma-separated suite names")
    verify.add_argument("--samples", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=None, help="defaults to FAIRCTL_SEED or 42")
    verify.add_argument("--n-values", default="2,3,5,10", help="comma-separated dimensions")
    verify.add_argument(
        "--p-chain", default="2,3,4,6,10,20,50,inf", help="comma-separated exponent chain"
    )
    verify.add_argument("--tol", type=_positive(float), default=1e-9)
    verify.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "epsmax": _cmd_epsmax,
    "project": _cmd_project,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, status = _COMMANDS[args.command](args)
        _emit(doc, args.out)
    except CliError as exc:
        print(f"fairctl: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fairctl: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
