"""Command-line front end: CSV vectors in, JSON reports out.

Exit codes are a stable contract: 0 for success or an all-pass verdict, 1
for a semantic negative (a non-member vector, a failed suite, a
non-converged solve), 2 for usage or input errors. Every report carries the
package version; the verify command echoes its seed, which can also be set
through the FAIRCTL_SEED environment variable.

Input errors exit 2 with a message on stderr. Flag values are judged while
the arguments are parsed, by the library's own checks, so the message names
the flag in the library's words; verify's flags and FAIRCTL_SEED are judged
by a VerifyConfig built from each alone. Defaults are the library's. A bad
CSV row, zero rows included, is named as file:line, and an input file that
cannot be read or an output file (--out, --emit-csv) that cannot be written
is named by its path.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import CONVERGENCE_TOL, _row_fault, check_exponent, check_iterations, check_tolerance
from .fairness import MEMBERSHIP_TOL, FairnessSpec, check_epsilon, dispersion_report
from .geometry import PROJECTION_MAX_ITER, project_fair_region
from .solver import SOLVE_MAX_ITER, ObjectiveSpec, pareto_sweep, solve
from .verifier import DEFAULT_N_VALUES, DEFAULT_P_CHAIN, SUITE_NAMES, VerifyConfig, _p_token, run_suite

#: Most epsilon values a sweep grid may hold; each one is a full solve.
MAX_GRID_POINTS = 10000


def _flag(parse):
    """An argparse type from parse: its ValueError becomes argparse's error, which names the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


@_flag
def _exponents(text: str) -> list[float]:
    ps = [check_exponent(token) for token in text.split(",") if token.strip()]
    if not ps:
        raise ValueError("exponent list is empty")
    return ps


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in _tokens(text))


def _suites(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return SUITE_NAMES
    return _tokens(text)


def _config_field(name: str, parse):
    """argparse type for one VerifyConfig field: parse reads the text, and a config built from it judges it."""
    return _flag(lambda text: getattr(VerifyConfig(**{name: parse(text)}), name))


_seed = _config_field("seed", int)


@_flag
def _eps_grid(text: str) -> list[float]:
    """start:stop:step as the epsilon values from start to stop, each within [0, 1]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"invalid grid {text!r}: expected start:stop:step")
    start, stop, step = (float(t) for t in parts)
    if not (step > 0 and stop >= start):
        raise ValueError(f"invalid grid {text!r}: need step > 0 and stop >= start")
    check_epsilon(start)
    check_epsilon(stop)
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"invalid grid {text!r}: more than {MAX_GRID_POINTS} points")
    return [min(start + k * step, 1.0) for k in range(math.floor(span) + 1)]


def _read_rows(path: str, nonneg: bool = True, positive: bool = False) -> np.ndarray:
    """Parse a vector CSV into a (rows, n) array: one vector per line, '#' lines are comments.

    Lines are parsed into float lists, up to the first line whose shape is
    wrong, and their entries are checked as one array. Every error names
    the first bad line in file order, and within a line a bad entry comes
    before a bad shape. With positive, a row needs a positive entry.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}")
    rows: list[list[float]] = []
    linenos: list[int] = []
    shape_error = None  # (line number, message, its values if it parsed)
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values = [float(tok) for tok in text.split(",")]
        except ValueError:
            shape_error = (lineno, "malformed CSV row", None)
            break
        if len(values) < 2:
            shape_error = (lineno, "vectors need at least 2 entries", values)
            break
        if rows and len(values) != len(rows[0]):
            message = f"inconsistent dimension {len(values)} (expected {len(rows[0])})"
            shape_error = (lineno, message, values)
            break
        rows.append(values)
        linenos.append(lineno)
    array = np.array(rows, dtype=float)
    found = _row_fault(array, nonneg, positive) if rows else None
    if found is not None:
        raise ValueError(f"{path}:{linenos[found[0]]}: {found[1]}")
    if shape_error is not None:
        lineno, message, values = shape_error
        found = None if values is None else _row_fault(np.array(values), nonneg, positive)
        raise ValueError(f"{path}:{lineno}: {message if found is None else found[1]}")
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return array


def _read_objective(path: str) -> ObjectiveSpec:
    rows = _read_rows(path, nonneg=False)
    if len(rows) != 1:
        raise ValueError(f"{path}: objective file must contain exactly one row, found {len(rows)}")
    return ObjectiveSpec(rows[0])


def _document(command: str, inputs: dict, results: dict, seed: int | None = None) -> dict:
    doc = {"command": command, "inputs": inputs, "results": results}
    if seed is not None:
        doc["seed"] = seed
    doc["version"] = __version__
    return doc


#: json.dumps's own C string encoder, and the cache key of a list item's prefix
_encode = json.encoder.encode_basestring_ascii
_ITEM = object()


def _scalar(value) -> str:
    """A str, None, bool, int or float as json.dumps writes it, tried in json's isinstance order."""
    if isinstance(value, str):
        return _encode(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, float):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value, out: list[str], nl: str, prefixes: dict) -> None:
    """Append the JSON text of a dict, list or tuple to out; nl is a newline and its line's indent.

    prefixes caches ',<nl>  "key": ' per indent, for str keys only: 1, 1.0 and True are one key.
    A _Table item writes itself.
    """
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        out.append(brackets)
        return
    inner = nl + "  "
    cache = prefixes.get(inner) or prefixes.setdefault(inner, {_ITEM: "," + inner})
    out.append(brackets[0])
    start = len(out)
    for key, item in value.items() if brackets == "{}" else zip(itertools.repeat(_ITEM), value):
        prefix = cache.get(key)
        if prefix is None:
            prefix = "," + inner + _encode(key if isinstance(key, str) else _scalar(key)) + ": "
            if isinstance(key, str):
                cache[key] = prefix
        kind = type(item)  # exact builtins are written here, anything else by _scalar or recursion
        if kind is float and math.isfinite(item) or kind is int:
            out.append(prefix + repr(item))
        elif kind is str:
            out.append(prefix + _encode(item))
        elif kind is bool:
            out.append(prefix + ("true" if item else "false"))
        elif kind is dict or kind is list or isinstance(item, (list, tuple, dict)):
            out.append(prefix)
            _write(item, out, inner, prefixes)
        elif kind is _Table:
            out.append(prefix)
            item.write(out, inner)
        else:
            out.append(prefix + _scalar(item))
    out[start] = out[start][1:]  # the first item has no comma
    out.append(nl + brackets[1])


#: A varying place in a _Table's sample row; no key or constant of a row holds it, so its JSON text marks the %s fields
_SLOT = "\x00"
_BOOL_TEXT = ("false", "true")


def _column(values) -> list | range:
    """A range, or a float or bool array, as a list whose items' %s text is their JSON text."""
    if isinstance(values, range):
        return values
    if values.dtype == bool:
        return [_BOOL_TEXT[v] for v in values.tolist()]
    finite = np.isfinite(values)
    if not finite.all():
        _scalar(float(values[~finite][0]))  # raises json's ValueError
    return values.tolist()


class _Table:
    """A JSON list of k dicts that differ only in some leaves, written from one %-template.

    row is the dict with each varying leaf given as its column: a range or a
    1-D float or bool array of k >= 1 values. _write writes one row with
    _SLOT in those places, in the order it visits them, and fills that
    text's template for all k rows in one % operation.
    """

    def __init__(self, row: dict):
        self.columns: list = []
        self.row = self._sample(row)

    def _sample(self, value):
        if isinstance(value, dict):
            return {key: self._sample(item) for key, item in value.items()}
        if isinstance(value, list):
            return [self._sample(item) for item in value]
        if isinstance(value, (range, np.ndarray)):
            self.columns.append(_column(value))
            return _SLOT
        return value

    def write(self, out: list[str], nl: str) -> None:
        inner = nl + "  "
        sample: list[str] = []
        _write(self.row, sample, inner, {})
        template = "".join(sample).replace("%", "%%").replace(_encode(_SLOT), "%s")
        values = tuple(itertools.chain.from_iterable(zip(*self.columns)))
        rows = ("," + inner).join([template] * len(self.columns[0])) % values
        out += ["[", inner, rows, nl, "]"]


def _json_text(value) -> str:
    """The text of json.dumps(value, indent=2, allow_nan=False), from one walk of value."""
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    out: list[str] = []
    _write(value, out, "\n", {})
    return "".join(out)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}")


def _emit(doc: dict, out_path: str | None) -> None:
    """Write doc as 2-space-indented, ASCII-escaped JSON, the bytes of json.dumps(indent=2); NaN or inf: exit 2."""
    text = _json_text(doc) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_file(out_path, text)


def _assess(args, eps: float, tol: float = MEMBERSHIP_TOL):
    """The CSV's rows as one array, with one dispersion_report call over them all."""
    rows = _read_rows(args.input, positive=True)
    return dispersion_report(rows, args.p, eps, tol=tol)


def _cmd_check(args) -> tuple[dict, int]:
    report = _assess(args, args.eps, args.tol)
    members = np.logical_and.reduce([e.member for e in report.per_p])
    vectors = _Table(
        {
            "index": range(len(report.cv)),
            "cv": report.cv,
            "mean": report.mean,
            "per_p": [
                {"p": _p_token(e.p), "eps_max": e.eps_max, "member": e.member, "cv_bound": e.cv_bound}
                for e in report.per_p
            ],
            "member_all_p": members,
        }
    )
    all_members = bool(members.all())
    doc = _document(
        "check",
        {
            "input": args.input,
            "eps": args.eps,
            "p": [_p_token(p) for p in args.p],
            "tol": args.tol,
        },
        {"vectors": vectors, "all_members": all_members},
    )
    return doc, 0 if all_members else 1


def _cmd_epsmax(args) -> tuple[dict, int]:
    report = _assess(args, 0.0)
    vectors = _Table(
        {
            "index": range(len(report.cv)),
            "per_p": [{"p": _p_token(e.p), "eps_max": e.eps_max} for e in report.per_p],
        }
    )
    doc = _document(
        "epsmax",
        {"input": args.input, "p": [_p_token(p) for p in args.p]},
        {"vectors": vectors},
    )
    return doc, 0


def _cmd_project(args) -> tuple[dict, int]:
    spec = FairnessSpec(args.eps, args.p)
    rows = _read_rows(args.input)
    results = []
    all_converged = True
    for index, row in enumerate(rows):
        res = project_fair_region(row, spec, tol=args.tol, max_iter=args.max_iter)
        all_converged = all_converged and res.converged
        results.append(
            {
                "index": index,
                "point": res.point.values.tolist(),
                "iterations": res.iterations,
                "residual": res.residual,
                "converged": res.converged,
            }
        )
    doc = _document(
        "project",
        {
            "input": args.input,
            "eps": args.eps,
            "p": _p_token(args.p),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {"points": results},
    )
    return doc, 0 if all_converged else 1


def _cmd_solve(args) -> tuple[dict, int]:
    obj = _read_objective(args.objective)
    res = solve(obj, FairnessSpec(args.eps, args.p), tol=args.tol, max_iter=args.max_iter)
    doc = _document(
        "solve",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "eps": args.eps,
            "p": _p_token(args.p),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        {
            "x_opt": res.x_opt.values.tolist(),
            "objective_value": res.objective_value,
            "iterations": res.iterations,
            "converged": res.converged,
            "duality_gap": res.duality_gap,
            "eps_max_at_opt": res.eps_max_at_opt,
            "cv_at_opt": res.cv_at_opt,
        },
    )
    return doc, 0 if res.converged else 1


def _cmd_sweep(args) -> tuple[dict, int]:
    obj = _read_objective(args.objective)
    points = pareto_sweep(obj, args.p, eps_grid=args.eps_grid)
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
        _write_file(args.emit_csv, "\n".join(lines) + "\n")
    doc = _document(
        "sweep",
        {
            "objective": args.objective,
            "coefficients": obj.coefficients.tolist(),
            "p": _p_token(args.p),
            "eps_grid": args.eps_grid,
            "emit_csv": args.emit_csv,
        },
        {"points": rows},
    )
    return doc, 0 if all(pt.converged for pt in points) else 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _seed(os.environ.get("FAIRCTL_SEED", str(VerifyConfig.seed)))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FAIRCTL_SEED: {exc}")


def _cmd_verify(args) -> tuple[dict, int]:
    cfg = VerifyConfig(
        suites=args.suite,
        samples=args.samples,
        n_values=args.n_values,
        p_values=args.p_chain,
        seed=_resolve_seed(args),
        tol=args.tol,
    )
    report = run_suite(cfg)
    return _document("verify", **report.to_dict()), 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairctl",
        description="Dispersion-control fairness constraints: membership, projection, solving, sweeps, verification.",
    )
    parser.add_argument("--version", action="version", version=f"fairctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    epsilon = _flag(check_epsilon)
    exponent = _flag(check_exponent)
    tolerance = _flag(check_tolerance)
    cap = _flag(check_iterations)

    check = sub.add_parser("check", help="membership and thresholds for vectors in a CSV file")
    check.add_argument("--input", required=True, help="CSV file, one vector per line")
    check.add_argument("--eps", type=epsilon, required=True, help="fairness level in [0, 1]")
    check.add_argument("--p", type=_exponents, required=True, help="comma-separated exponents, each >= 2 or 'inf'")
    check.add_argument(
        "--tol", type=tolerance, default=MEMBERSHIP_TOL, help="relative membership tolerance"
    )
    check.add_argument("--out", default=None, help="write the JSON report to a file")

    epsmax = sub.add_parser("epsmax", help="maximal fairness threshold per vector")
    epsmax.add_argument("--input", required=True)
    epsmax.add_argument("--p", type=_exponents, required=True, help="comma-separated exponents")
    epsmax.add_argument("--out", default=None)

    project = sub.add_parser("project", help="project vectors onto the fair region")
    project.add_argument("--input", required=True)
    project.add_argument("--eps", type=epsilon, required=True)
    project.add_argument("--p", type=exponent, required=True, help="a single exponent >= 2 or 'inf'")
    project.add_argument("--tol", type=tolerance, default=CONVERGENCE_TOL)
    project.add_argument("--max-iter", type=cap, default=PROJECTION_MAX_ITER)
    project.add_argument("--out", default=None)

    solve_cmd = sub.add_parser("solve", help="maximize a linear objective over the fair region")
    solve_cmd.add_argument("--objective", required=True, help="CSV file with one coefficient row")
    solve_cmd.add_argument("--eps", type=epsilon, required=True)
    solve_cmd.add_argument("--p", type=exponent, required=True)
    solve_cmd.add_argument("--tol", type=tolerance, default=CONVERGENCE_TOL)
    solve_cmd.add_argument("--max-iter", type=cap, default=SOLVE_MAX_ITER)
    solve_cmd.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="trace the efficiency-vs-fairness frontier over epsilon")
    sweep.add_argument("--objective", required=True)
    sweep.add_argument("--p", type=exponent, required=True)
    sweep.add_argument("--eps-grid", type=_eps_grid, required=True, help="start:stop:step within [0, 1]")
    sweep.add_argument("--emit-csv", default=None, help="also write epsilon,objective,cv,cv_bound rows")
    sweep.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the sampling-based theorem suites")
    suites = _config_field("suites", _suites)
    verify.add_argument("--suite", type=suites, default="all", help="'all' or comma-separated suite names")
    verify.add_argument("--samples", type=_config_field("samples", int), default=VerifyConfig.samples)
    verify.add_argument(
        "--seed", type=_seed, default=None, help=f"defaults to FAIRCTL_SEED or {VerifyConfig.seed}"
    )
    dimensions = _config_field("n_values", _ints)
    verify.add_argument("--n-values", type=dimensions, default=DEFAULT_N_VALUES, help="comma-separated dimensions")
    verify.add_argument(
        "--p-chain",
        type=_config_field("p_values", _tokens),
        default=DEFAULT_P_CHAIN,
        help="comma-separated distinct exponents",
    )
    verify.add_argument("--tol", type=tolerance, default=VerifyConfig.tol)
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


#: The parser, built on the first call of main and reused by later ones.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, status = _COMMANDS[args.command](args)
        _emit(doc, args.out)
    except ValueError as exc:
        print(f"fairctl: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
